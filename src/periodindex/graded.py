"""Finitely generated graded abelian groups in multiplicity form.

A cyclic summand is encoded by its order: 0 stands for an infinite cyclic
group Z, any integer >= 2 for Z/n.  Order-1 summands are trivial and get
dropped during normalisation.  A graded group stores, per degree, the free
rank and the distinct finite orders, each with its multiplicity, so a
million copies of Z/4 cost one pair.  Composite orders such as Z/6 are
kept as-is (``primary_part`` splits them on request), because the homology
formulas feeding this module produce them directly.  Only ``summands``,
``describe`` and ``to_json`` list every summand.

Every group carries a truncation cap ``max_degree``: content is only known
up to that degree, and reading past it is an error rather than a silent
zero.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import chain, repeat, zip_longest
from math import gcd, lcm, prod

from .bounds import decimal_string, factorize, padic_valuation


def tensor_summands(a: int, b: int) -> int | None:
    """Tensor product of cyclic groups: Z ox Z = Z, Z/a ox Z/b = Z/gcd(a,b).

    Returns the order of the result, or None when the product is trivial.
    The single gcd formula covers the free cases because gcd(0, n) == n.
    """
    g = gcd(a, b)
    return None if g == 1 else g


def tor_summands(a: int, b: int) -> int | None:
    """Tor of cyclic groups: vanishes against Z, else Z/gcd(a,b)."""
    if a == 0 or b == 0:
        return None
    g = gcd(a, b)
    return None if g == 1 else g


class GradedAbelianGroup(namedtuple("GradedAbelianGroup", "parts")):
    """Graded abelian group: parts[n] = (free rank, sorted (order, multiplicity) pairs).

    The length of ``parts`` is max_degree + 1; trailing empty degrees are
    meaningful (they assert the group is known to be trivial there).

    >>> g = GradedAbelianGroup.from_summands({0: [0], 2: [4, 2, 4]}, max_degree=3)
    >>> g.parts[2], g.summands(2), g.describe(2)
    ((0, ((2, 1), (4, 2))), (0, (2, 4, 4)), 'Z/2 + Z/4 + Z/4')
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]):
        if not parts:
            raise ValueError("a graded group needs at least degree 0")
        fixed = []
        for free, pairs in parts:
            if not pairs and free >= 0:  # an empty or free-only degree: nothing to sort
                fixed.append((free, ()))
                continue
            pairs = tuple(sorted(pairs))
            if (free < 0 or any(t < 2 or m < 1 for t, m in pairs)
                    or len({t for t, _ in pairs}) < len(pairs)):
                raise ValueError("parts need rank >= 0, distinct orders >= 2 and counts >= 1")
            fixed.append((free, pairs))
        return tuple.__new__(cls, (tuple(fixed),))

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    @classmethod
    def from_summands(cls, summands, max_degree: int) -> "GradedAbelianGroup":
        """Build from {degree: iterable of cyclic orders} (0 encodes Z).

        Order-1 entries are dropped; content above ``max_degree`` is an
        error because the result would silently misstate the truncation.
        """
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        counts = [Counter() for _ in range(max_degree + 1)]
        for degree, orders in summands.items():
            orders = Counter(orders)
            if orders and not 0 <= degree <= max_degree:
                raise ValueError(
                    f"summands in degree {degree} fall outside the truncation cap {max_degree}")
            if any(order < 0 for order in orders):
                raise ValueError("cyclic order must be >= 0")
            orders.pop(1, None)
            if orders:
                counts[degree] = orders
        return cls(tuple((c.pop(0, 0), c.items()) for c in counts))

    @classmethod
    def unit(cls, max_degree: int) -> "GradedAbelianGroup":
        """Z concentrated in degree 0 (the unit for the Kunneth product)."""
        return cls.from_summands({0: [0]}, max_degree)

    @property
    def max_degree(self) -> int:
        return len(self.parts) - 1

    def _part(self, degree: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        if not 0 <= degree <= self.max_degree:
            raise ValueError(f"degree {degree} is outside the trusted range 0..{self.max_degree}")
        return self.parts[degree]

    def summands(self, degree: int) -> tuple[int, tuple[int, ...]]:
        """(free rank, sorted finite orders) in one degree; errors past the cap."""
        free, pairs = self._part(degree)
        return free, tuple(chain.from_iterable(repeat(t, m) for t, m in pairs))

    def nonzero_degrees(self) -> list[int]:
        return [d for d, (free, tors) in enumerate(self.parts) if free or tors]

    def invariant_factors(self, degree: int) -> tuple[int, ...]:
        """Torsion in divisibility-chain form d_1 | d_2 | ..., ascending.

        This is the isomorphism-invariant shape, and the form a
        Smith-normal-form homology computation reports.

        >>> GradedAbelianGroup.from_summands({1: [4, 6]}, 1).invariant_factors(1)
        (2, 12)
        """
        _, pairs = self._part(degree)
        towers: dict[int, list[int]] = {}
        for order, mult in pairs:  # each distinct order is factorised once
            for p, e in factorize(order):
                towers.setdefault(p, []).extend([p ** e] * mult)
        tiers = zip_longest(*(sorted(t, reverse=True) for t in towers.values()), fillvalue=1)
        return tuple(prod(tier) for tier in tiers)[::-1]

    def restrict(self, new_max_degree: int) -> "GradedAbelianGroup":
        """Lower the truncation cap, discarding the degrees above it."""
        if not 0 <= new_max_degree <= self.max_degree:
            raise ValueError("can only restrict within the trusted range")
        return GradedAbelianGroup(self.parts[:new_max_degree + 1])

    def torsion_strings(self, degree: int) -> list[str]:
        """The finite orders of ``summands(degree)`` as decimal strings, each
        distinct order converted once, by ``decimal_string``: an order can
        have millions of digits, where ``str`` is quadratic."""
        _, pairs = self._part(degree)
        return list(chain.from_iterable([decimal_string(t)] * m for t, m in pairs))

    def describe(self, degree: int) -> str:
        free, _ = self._part(degree)
        pieces = []
        if free == 1:
            pieces.append("Z")
        elif free > 1:
            pieces.append(f"Z^{free}")
        pieces.extend("Z/" + t for t in self.torsion_strings(degree))
        return " + ".join(pieces) if pieces else "0"

    def to_json(self) -> dict:
        """{str(degree): {"free": rank, "torsion": [decimal strings]}}.

        Every degree up to the cap is present, so the cap round-trips.
        Orders are decimal strings, one per summand: they can exceed what
        consumers with fixed-width numbers parse losslessly.
        """
        return {str(d): {"free": free, "torsion": self.torsion_strings(d)}
                for d, (free, _) in enumerate(self.parts)}

    @classmethod
    def from_json(cls, data: dict) -> "GradedAbelianGroup":
        """Inverse of ``to_json``; malformed input raises a one-line ValueError."""
        if not isinstance(data, dict) or not data:
            raise ValueError("a graded group in JSON needs an object with at least one degree")
        parts = {}
        for key, entry in data.items():
            degree = _json_int(key, "degree key", 0)
            if degree in parts:
                raise ValueError(f"degree {degree} appears twice")
            if not (isinstance(entry, dict) and isinstance(entry.get("torsion"), list)
                    and "free" in entry):
                raise ValueError(f"degree {key!r} needs a 'free' rank and a 'torsion' list")
            orders = [_json_int(t, f"degree {key}: torsion order", 2)
                      for t in entry["torsion"]]
            parts[degree] = (_json_int(entry["free"], f"degree {key}: free rank", 0),
                             Counter(orders).items())
        return cls(tuple(parts.get(d, (0, ())) for d in range(max(parts) + 1)))

    def __str__(self):
        lines = [f"H_{d} = {self.describe(d)}" for d in self.nonzero_degrees()]
        return "\n".join(lines) if lines else "0"


def _json_int(value, what: str, low: int) -> int:
    """An int, or a decimal string as ``to_json`` writes one, that is >= ``low``."""
    number = int(value) if isinstance(value, str) and value.isdecimal() else value
    if isinstance(number, int) and not isinstance(number, bool) and number >= low:
        return number
    raise ValueError(f"{what} {value!r} is not an integer >= {low}")


def kunneth(a: GradedAbelianGroup, b: GradedAbelianGroup,
            max_degree: int) -> GradedAbelianGroup:
    """Graded Kunneth product truncated at ``max_degree``.

    Degree n of the result is the sum of A_i ox B_j over i + j = n plus
    Tor(A_i, B_j) over i + j = n - 1.  Both factors must be trusted up to
    the requested cap: a factor of unknown content in low degrees could
    otherwise leak wrong answers below the cap.  The loops run over
    distinct orders, and a product of multiplicities counts the summands.
    """
    if max_degree > min(a.max_degree, b.max_degree):
        raise ValueError(
            f"kunneth truncated at {max_degree} needs both factors trusted that far "
            f"(caps are {a.max_degree} and {b.max_degree})")

    def cyclics(g):  # [(degree, [(order, multiplicity)])] over nonzero degrees, Z as order 0
        return [(d, [(0, free)] * bool(free) + list(pairs))
                for d, (free, pairs) in enumerate(g.parts[:max_degree + 1]) if free or pairs]

    counts = [defaultdict(int) for _ in range(max_degree + 1)]
    cyclics_b = cyclics(b)
    for i, cyc_a in cyclics(a):
        for j, cyc_b in cyclics_b:
            if i + j > max_degree:
                break
            tensor_bucket = counts[i + j]
            tor_bucket = counts[i + j + 1] if i + j < max_degree else None
            for x, m in cyc_a:
                for y, k in cyc_b:
                    g = gcd(x, y)  # tensor_summands and tor_summands share this gcd
                    if g != 1:
                        tensor_bucket[g] += m * k
                        if x and y and tor_bucket is not None:
                            tor_bucket[g] += m * k
    return GradedAbelianGroup(tuple((c.pop(0, 0), c.items()) for c in counts))


def exponent(a: GradedAbelianGroup, degree: int) -> tuple[int, int]:
    """(lcm of the finite orders, 1 if there are none; free rank) in one degree.

    Free rank is reported separately since no finite integer kills a Z summand.
    """
    free, pairs = a._part(degree)
    return lcm(*(t for t, _ in pairs)), free


def primary_part(a: GradedAbelianGroup, p: int) -> GradedAbelianGroup:
    """Keep only the p-power part of every finite summand; drop free parts."""
    if p < 2:
        raise ValueError("p must be a prime")
    counts = [Counter() for _ in a.parts]
    for c, (_, pairs) in zip(counts, a.parts):
        for m, mult in pairs:
            if m % p == 0:
                c[p ** padic_valuation(p, m)] += mult
    return GradedAbelianGroup(tuple((0, c.items()) for c in counts))
