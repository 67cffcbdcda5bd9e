"""Integer series packed in fixed-width slots (Kronecker substitution;
Schoenhage 1982).

A series of ``width``-byte slots is one int whose slot n, at bits
8 * width * n and up, holds the coefficient of x^n: adding series adds
them slot by slot, multiplying by x^k is a shift, and multiplying two
series multiplies the polynomials, as long as no slot carries into the
next.  A caller picks the width from a bound on every coefficient it
forms (``_slot_width``), packs once and unpacks once.

It also holds ``_divisibility_chain``, the merge of cyclic orders into
invariant factors by Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), which every
graded group's constructor (:mod:`periodindex.graded`) and the SNF
oracle's homology table (:mod:`periodindex.snf`) apply.

This module imports nothing from the package: both the closed forms
(:mod:`periodindex.complexes`) and the SNF oracle sum in packed series, and
neither route learns the other through it.  The closed forms build their
degrees as chains already, so they never reach the merge.
"""

from __future__ import annotations

import sys
from collections import Counter
from math import gcd, lcm

# machine formats of the slot widths read in one cast: native order must be
# the little-endian order of the packed ints
_SLOT_FORMATS = ({memoryview(bytes(8)).cast(c).itemsize: c for c in "BHIQ"}
                 if sys.byteorder == "little" else {})


def _slot_width(bound: int) -> int:
    """Bytes per slot of series whose slots, and whose products' slots,
    never exceed ``bound``: 1, 2, 4 or 8, or 8k bytes from 2^64 on."""
    bits = bound.bit_length()
    return next((w for w in (1, 2, 4, 8) if bits <= 8 * w), 8 * -(-bits // 64))


def _pack(values, width: int) -> int:
    """The series with ``values`` in its slots 0, 1, ..., ``width`` bytes
    each: one int, slot n at bits 8 * width * n and up.  A value too wide
    for its slot carries into the slots above it, never below."""
    bits = 8 * width
    return sum(v << bits * n for n, v in enumerate(values))


def _unpack(series: int, width: int, count: int) -> list[int]:
    """Slots 0 .. count - 1 of a series of ``width``-byte slots; higher slots
    are cut off.  Widths of 1, 2, 4 and 8 bytes are read in one cast, wider
    slots one at a time.

    >>> _unpack(_pack([5, 0, 255], 1), 1, 3)   # the top slot full
    [5, 0, 255]
    >>> _unpack(_pack([1, 2 ** 70], 16), 16, 2) == [1, 2 ** 70]
    True
    >>> _unpack(0, 2, 3), _unpack(_pack([1, 2, 3], 4), 4, 2)   # empty; cut
    ([0, 0, 0], [1, 2])
    """
    size = width * count
    data = (series & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    if width in _SLOT_FORMATS:
        return memoryview(data).cast(_SLOT_FORMATS[width]).tolist()
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, size, width)]


def _divisibility_chain(counts) -> dict[int, int]:
    """Invariant factors > 1 of the sum of m copies of Z/e over the
    {e: m} ``counts``, e >= 1, as {factor: multiplicity}, ascending.

    As Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), neighbouring orders > 1 with
    a count, sorted, that do not divide one another are replaced by their
    gcd and lcm until the distinct orders form a chain.  Each step spreads
    a pair apart at a fixed product, so the loop ends.

    >>> _divisibility_chain({2: 1, 3: 1, 4: 1, 1: 1})
    {2: 1, 12: 1}
    >>> _divisibility_chain({4: 1, 2: 3})   # a chain, but not in this order
    {2: 3, 4: 1}
    >>> _divisibility_chain({}), _divisibility_chain({4: 3})
    ({}, {4: 3})
    >>> _divisibility_chain({1: 5}), _divisibility_chain({6: 0})
    ({}, {})
    """
    counts = Counter(counts)
    while True:
        orders = sorted(e for e, m in counts.items() if m and e > 1)
        pair = next(((a, b) for a, b in zip(orders, orders[1:]) if b % a), None)
        if pair is None:
            return {e: counts[e] for e in orders}
        a, b = pair
        t = min(counts[a], counts[b])
        counts.update({a: -t, b: -t, gcd(a, b): t, lcm(a, b): t})
