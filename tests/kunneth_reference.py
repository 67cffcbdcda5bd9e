"""The pairwise Kunneth product, kept test-side as the reference the
package's one n-ary fold is compared against, with the model homologies
folded through it factor by factor and the invariant factors read off by
factorising every order.

The package folds all factors at once as order-major rows, builds only the
result, and for composite n never pairs powers of different primes.  These
functions build every intermediate product and pair every order with every
order, so the tests can check that the two agree.
"""

from collections import defaultdict
from itertools import product, zip_longest
from math import gcd, prod

from periodindex.bounds import factorize
from periodindex.complexes import closed_form_homology, primary_model
from periodindex.graded import GradedAbelianGroup


def kunneth(a, b, max_degree: int) -> GradedAbelianGroup:
    """Graded Kunneth product of two groups truncated at ``max_degree``: one
    gcd per pair of distinct orders, each non-coprime pair convolving their
    degree lists into the tensor part and, for two torsion orders, into the
    Tor part one degree up."""
    if max_degree > min(a.max_degree, b.max_degree):
        raise ValueError(f"kunneth truncated at {max_degree} needs both factors trusted that far")

    def rows(g):  # {order: [(degree, multiplicity)] ascending}, Z as order 0
        out = defaultdict(list)
        for d, (free, pairs) in enumerate(g.parts[:max_degree + 1]):
            for t, m in ((0, free),) * (free > 0) + pairs:
                out[t].append((d, m))
        return out.items()

    counts = [{} for _ in range(max_degree + 2)]  # a spare degree for Tor past the cap
    for (x, row_a), (y, row_b) in product(rows(a), rows(b)):
        if (g := gcd(x, y)) == 1:
            continue
        for i, m in row_a:
            for j, k in row_b:
                if i + j > max_degree:
                    break
                bucket = counts[i + j]
                bucket[g] = bucket.get(g, 0) + m * k
                if x and y:
                    bucket = counts[i + j + 1]
                    bucket[g] = bucket.get(g, 0) + m * k
    return GradedAbelianGroup(tuple((c.pop(0, 0), c.items()) for c in counts[:-1]))


def primary_model_homology(p: int, r: int, max_degree: int) -> GradedAbelianGroup:
    """The p-primary model, one pairwise product per factor."""
    first, *rest = primary_model(p, r, max_degree)
    result = closed_form_homology(first, max_degree)
    for factor in rest:
        result = kunneth(result, closed_form_homology(factor, max_degree), max_degree)
    return result


def model_homology(n: int, max_degree: int) -> GradedAbelianGroup:
    """The model for order n, one pairwise product per prime-power model,
    with its orders as produced (Z/2 + Z/3, not Z/6)."""
    (p, r), *rest = factorize(n)
    result = primary_model_homology(p, r, max_degree)
    for p, r in rest:
        result = kunneth(result, primary_model_homology(p, r, max_degree), max_degree)
    return result


def invariant_factors(g: GradedAbelianGroup, degree: int) -> tuple[int, ...]:
    """The torsion of ``g`` in ``degree`` as ascending invariant factors,
    from one descending tower of prime powers per prime."""
    towers: dict[int, list[int]] = {}
    for order, mult in g.parts[degree][1]:
        for p, e in factorize(order):
            towers.setdefault(p, []).extend([p ** e] * mult)
    tiers = zip_longest(*(sorted(t, reverse=True) for t in towers.values()), fillvalue=1)
    return tuple(prod(tier) for tier in tiers)[::-1]
