"""Finitely generated graded abelian groups in multiplicity form.

A cyclic summand is encoded by its order: 0 stands for Z, any integer
>= 2 for Z/n, and order-1 summands are dropped.  A graded group stores,
per degree, the free rank and the distinct finite orders, each with its
multiplicity, so a million copies of Z/4 cost one pair.  Composite orders
such as Z/6 are kept as-is (``primary_part`` splits them on request),
because the homology formulas feeding this module produce them directly.
Work follows distinct orders: ``kunneth`` takes one gcd per pair of them
and skips coprime pairs, and a listing copies one block per order.

Every group carries a truncation cap ``max_degree``: content is only
known up to that degree, and reading past it is an error, not a zero.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import product, zip_longest
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
        return free, tuple(_listing(pairs, int))

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
        return _listing(self._part(degree)[1], decimal_string)

    def describe(self, degree: int) -> str:
        free, pairs = self._part(degree)
        pieces = ["Z" if free == 1 else f"Z^{free}"] if free else []
        if pairs:
            pieces.append("Z/" + " + Z/".join(_listing(pairs, decimal_string)))
        return " + ".join(pieces) or "0"

    def to_json(self) -> dict:
        """{str(degree): {"free": rank, "torsion": [one decimal string per summand]}}.

        Every degree up to the cap is present, so the cap round-trips.
        Orders are strings, each distinct one converted once: they can
        exceed what consumers with fixed-width numbers parse losslessly.
        """
        names = {t: decimal_string(t) for t in {u for _, pairs in self.parts for u, _ in pairs}}
        return {str(d): {"free": free, "torsion": _listing(pairs, names.get)}
                for d, (free, pairs) in enumerate(self.parts)}

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


def _listing(pairs, name) -> list:
    """One entry per summand of ``pairs``, ascending: the block ``[name(t)] * m``
    of each order t, joined onto the first block, which is not copied."""
    listed, *blocks = [[name(t)] * m for t, m in pairs] or [[]]
    for block in blocks:
        listed += block
    return listed


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
    otherwise leak wrong answers below the cap.  One gcd per pair of distinct
    orders: a coprime pair adds nothing, any other convolves their degree lists.

    >>> a = GradedAbelianGroup.from_summands({0: [0], 1: [4]}, 2)
    >>> kunneth(a, GradedAbelianGroup.from_summands({0: [0], 1: [3]}, 2), 2).parts
    ((1, ()), (0, ((3, 1), (4, 1))), (0, ()))
    """
    if max_degree > min(a.max_degree, b.max_degree):
        raise ValueError(
            f"kunneth truncated at {max_degree} needs both factors trusted that far "
            f"(caps are {a.max_degree} and {b.max_degree})")

    def rows(g):  # {order: [(degree, multiplicity)] ascending}, Z as order 0
        out = defaultdict(list)
        for d, (free, pairs) in enumerate(g.parts[:max_degree + 1]):
            for t, m in ((0, free),) * (free > 0) + pairs:
                out[t].append((d, m))
        return out.items()

    counts = [{} for _ in range(max_degree + 2)]  # a spare degree for Tor past the cap
    for (x, row_a), (y, row_b) in product(rows(a), rows(b)):
        if (g := gcd(x, y)) == 1:  # Z/x ox Z/y = Tor(Z/x, Z/y) = 0
            continue
        for i, m in row_a:
            for j, k in row_b:
                if i + j > max_degree:
                    break
                bucket = counts[i + j]
                bucket[g] = bucket.get(g, 0) + m * k
                if x and y:  # Tor vanishes against Z
                    bucket = counts[i + j + 1]
                    bucket[g] = bucket.get(g, 0) + m * k
    return GradedAbelianGroup(tuple((c.pop(0, 0), c.items()) for c in counts[:-1]))


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
