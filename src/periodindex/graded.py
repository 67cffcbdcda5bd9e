"""Finitely generated graded abelian groups in invariant factors.

A cyclic summand is encoded by its order: 0 stands for Z, any integer
>= 2 for Z/n, and order-1 summands are dropped.  A graded group stores,
per degree, the free rank and the distinct finite orders, each with its
multiplicity, so a million copies of Z/4 cost one pair.  Its canonical
form is the invariant factors d_1 | d_2 | ... of every degree: the one
constructor keeps a degree whose orders each divide the next as given,
as every model degree is, and merges any other into its chain
(``packing._divisibility_chain``, Z/a + Z/b = Z/gcd + Z/lcm).  So Z/6
and Z/2 + Z/3 build the same group, ``==`` is isomorphism, and a
degree's largest order is its exponent.  ``_chain`` builds a chain from
level counts: how many summands have order divisible by each prime
power.  Work follows distinct orders: a listing copies one block per
order.  The constructor checks every group it builds, in one pass per
degree: an empty degree is kept as (), and any other is sorted once and
walked once.

Every group carries a truncation cap ``max_degree``: content is only
known up to that degree, and reading past it is an error, not a zero.
``to_json`` writes a group for other programs; nothing here reads JSON.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import prod
from operator import itemgetter

from .bounds import decimal_string, is_prime, padic_valuation
from .packing import _divisibility_chain


class GradedAbelianGroup(namedtuple("GradedAbelianGroup", "parts")):
    """Graded abelian group: parts[n] = (free rank, invariant factors as
    ascending (order, multiplicity) pairs).

    The length of ``parts`` is max_degree + 1; trailing empty degrees are
    meaningful (they assert the group is known to be trivial there).

    >>> g = GradedAbelianGroup.from_summands({0: [0], 2: [4, 2, 4]}, max_degree=3)
    >>> g.parts[2], g.summands(2), g.describe(2)
    ((0, ((2, 1), (4, 2))), (0, (2, 4, 4)), 'Z/2 + Z/4 + Z/4')
    >>> GradedAbelianGroup.from_summands({1: [4, 6]}, 1).summands(1)  # Z/4 + Z/6
    (0, (2, 12))
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]):
        """Check and sort ``parts``, (free rank, pairs) per degree with the
        pairs in any iterable, in one pass per degree: the rank is checked
        first, an empty degree becomes (), and other pairs are sorted once
        and walked once, each order above the one before it (the first
        above 1), so the orders are distinct and >= 2.  A degree whose
        orders do not each divide the next is merged into its chain."""
        if not parts:
            raise ValueError("a graded group needs at least degree 0")
        fixed = []
        for free, pairs in parts:
            if free < 0:
                raise _invalid()
            if not pairs:  # an empty or free-only degree
                fixed.append((free, ()))
                continue
            pairs, previous, chain = tuple(sorted(pairs)), 1, True
            for t, m in pairs:
                if t <= previous or m < 1:
                    raise _invalid()
                if t % previous:
                    chain = False
                previous = t
            if not chain:
                pairs = tuple(_divisibility_chain(dict(pairs)).items())
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

    @property
    def max_degree(self) -> int:
        return len(self.parts) - 1

    def _part(self, degree: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        if not 0 <= degree <= self.max_degree:
            raise _outside(degree, self.max_degree)
        return self.parts[degree]

    def summands(self, degree: int) -> tuple[int, tuple[int, ...]]:
        """(free rank, invariant factors ascending) in one degree; errors past the cap."""
        free, pairs = self._part(degree)
        return free, tuple(_listing(pairs, int))

    def nonzero_degrees(self) -> list[int]:
        return [d for d, (free, tors) in enumerate(self.parts) if free or tors]

    def describe(self, degree: int) -> str:
        free, pairs = self._part(degree)
        return _describe(free, _listing(pairs, decimal_string))

    def to_json(self) -> dict:
        """{str(degree): {"free": rank, "torsion": [one decimal string per summand]}}.

        Written for other programs: nothing in the package reads it back.
        Every degree up to the cap is present, so a reader sees the cap.
        Orders are strings, each distinct one converted once: they can
        exceed what consumers with fixed-width numbers parse losslessly.
        """
        names = {t: decimal_string(t) for t in {u for _, pairs in self.parts for u, _ in pairs}}
        listed = {}
        for d, (free, pairs) in enumerate(self.parts):
            if len(pairs) == 1:  # one order, as most degrees of a model have
                (t, m), = pairs
                torsion = [names[t]] * m
            else:
                torsion = _listing(pairs, names.get)
            listed[str(d)] = {"free": free, "torsion": torsion}
        return listed

    def __str__(self):
        lines = [f"H_{d} = {self.describe(d)}" for d in self.nonzero_degrees()]
        return "\n".join(lines) if lines else "0"


def _invalid() -> ValueError:
    """The constructor's refusal of a degree's free rank or pairs."""
    return ValueError("parts need rank >= 0, distinct orders >= 2 and counts >= 1")


def _outside(degree: int, max_degree: int) -> ValueError:
    """The refusal of a degree past either end of a group's range."""
    return ValueError(f"degree {degree} is outside the trusted range 0..{max_degree}")


def _listing(pairs, name) -> list:
    """One entry per summand of ``pairs``, ascending: the block ``[name(t)] * m``
    of each order t, joined onto the first block, which is not copied."""
    listed, *blocks = [[name(t)] * m for t, m in pairs] or [[]]
    for block in blocks:
        listed += block
    return listed


def _describe(free: int, torsion: list[str]) -> str:
    """One degree as ``describe`` and the ``homology`` table write it, from its
    free rank and its orders as ``to_json`` lists them: "Z^2 + Z/2 + Z/4"."""
    pieces = ["Z" if free == 1 else f"Z^{free}"] if free else []
    if torsion:
        pieces.append("Z/" + " + Z/".join(torsion))
    return " + ".join(pieces) or "0"


def _chain(levels) -> list[tuple[int, int]]:
    """Invariant factors d_1 | d_2 | ... as ascending (order, multiplicity)
    pairs, from (count, q) levels, q = p^L standing for L consecutive
    powers p^j of a prime that each divide exactly count summands' orders.
    The i-th largest factor is the product of the q whose count is >= i, so
    from the top it is the product of every q, losing one q at each count.

    >>> _chain([(2, 2), (1, 2), (2, 3)])  # Z/2 + Z/4 and Z/3 + Z/3
    [(6, 1), (12, 1)]
    """
    levels = sorted(levels)
    factor, chain, start = prod(map(itemgetter(1), levels)), [], 0
    for count, q in levels:
        if count > start:
            chain.append((factor, count - start))
            start = count
        factor //= q
    return chain[::-1]


def exponent(a: GradedAbelianGroup, degree: int) -> tuple[int, int]:
    """(exponent, the largest finite order or 1 if there is none; free rank)
    in one degree.

    Free rank is reported separately since no finite integer kills a Z summand.
    """
    parts = a.parts
    if not 0 <= degree < len(parts):
        raise _outside(degree, len(parts) - 1)
    free, pairs = parts[degree]
    return (pairs[-1][0] if pairs else 1), free


def primary_part(a: GradedAbelianGroup, p: int) -> GradedAbelianGroup:
    """Keep only the p-power part of every finite summand; drop free parts."""
    if not is_prime(p):
        raise ValueError("p must be a prime")
    counts = [Counter() for _ in a.parts]
    for c, (_, pairs) in zip(counts, a.parts):
        for m, mult in pairs:
            if m % p == 0:
                c[p ** padic_valuation(p, m)] += mult
    return GradedAbelianGroup(tuple((0, c.items()) for c in counts))
