"""The direct-sum reference the summing in ``snf.DirectSum`` is checked against.

``summed_invariants`` walks every summand degree by degree, with one
``Counter`` of torsion per degree, and merges each degree's counts by the
gcd/lcm loop alone, with no shortcut for counts that already form a chain.
It reads each shape's ``boundary_invariants`` and nothing of its profile.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm


def divisibility_chain(counts) -> dict[int, int]:
    """Invariant factors > 1 of the sum of m copies of Z/e over the {e: m}
    ``counts``, ascending: neighbouring orders that do not divide one
    another are replaced by their gcd and lcm until the orders form a chain."""
    counts = Counter(counts)
    while True:
        orders = sorted(e for e, m in counts.items() if m and e > 1)
        pair = next(((a, b) for a, b in zip(orders, orders[1:]) if b % a), None)
        if pair is None:
            return {e: counts[e] for e in orders}
        a, b = pair
        t = min(counts[a], counts[b])
        counts.update({a: -t, b: -t, gcd(a, b): t, lcm(a, b): t})


def summed_invariants(summands, max_degree: int):
    """(dims, [(boundary rank, {invariant factor > 1: multiplicity})] per
    degree) of the direct sum of {(complex, base degree): multiplicity},
    truncated at ``max_degree``."""
    dims, ranks = [0] * (max_degree + 1), [0] * (max_degree + 1)
    torsion, rows = [Counter() for _ in dims], {}
    for (c, base), m in summands.items():
        if c not in rows:
            rows[c] = [(c.dims[n], *c.boundary_invariants(n)) for n in range(c.max_degree + 1)]
        for n, (dim, rank, factors) in zip(range(base, max_degree + 1), rows[c]):
            dims[n] += m * dim
            ranks[n] += m * rank
            for e, k in factors.items():
                torsion[n][e] += m * k
    return tuple(dims), [(r, divisibility_chain(t)) for r, t in zip(ranks, torsion)]
