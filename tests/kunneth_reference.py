"""The pairwise Kunneth product, the tests' one reference for products of
graded groups, with the model homologies folded through it factor by
factor, and invariant factors read off by factorising every order.

The package forms no Kunneth product: it reads the model homologies off
mod-p series and level counts, and these functions are what the tests
compare those readings with.  ``split_model_homology`` keeps the fold the
package used for composite n before it read the model's homology off
level counts, as their reference.
"""

from collections import Counter, defaultdict
from functools import reduce
from itertools import accumulate, product, zip_longest
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


def invariant_factors(pairs) -> tuple[int, ...]:
    """The sum of m copies of Z/t over the (t, m) ``pairs``, t >= 2, as
    ascending invariant factors, from one descending tower of prime powers
    per prime."""
    towers: dict[int, list[int]] = {}
    for order, mult in pairs:
        for p, e in factorize(order):
            towers.setdefault(p, []).extend([p ** e] * mult)
    tiers = zip_longest(*(sorted(t, reverse=True) for t in towers.values()), fillvalue=1)
    return tuple(prod(tier) for tier in tiers)[::-1]


def split_model_homology(n: int, max_degree: int) -> GradedAbelianGroup:
    """The model for order n as the package once folded it: every factor's
    torsion split into prime powers (Z/(hk) into Z/(h p^v_p(k)), h a power
    of the factor's prime p, plus the prime powers of k / p^v_p(k)), the
    factors folded by ``kunneth`` one prime at a time, as powers of
    different primes never pair and every factor's Z lies in degree 0, and
    every degree read back in invariant factors."""
    by_prime = defaultdict(list)  # {q: [factor as {degree: Counter of q-powers}]}
    for p, r in factorize(n):
        for f in primary_model(p, r, max_degree):
            split = defaultdict(lambda: defaultdict(Counter))
            for d, (_, pairs) in enumerate(closed_form_homology(f, max_degree).parts):
                for t, m in pairs:
                    own = f.h
                    for q, e in factorize(t // f.h):
                        if q == p:
                            own *= q ** e
                        else:
                            split[q][d][q ** e] += m
                    split[p][d][own] += m
            for q, degrees in split.items():
                by_prime[q].append(degrees)
    torsion = [Counter() for _ in range(max_degree + 1)]
    for factors in by_prime.values():
        folded = reduce(lambda a, b: kunneth(a, b, max_degree), (
            GradedAbelianGroup.from_summands(
                {0: [0], **{d: c.elements() for d, c in f.items()}}, max_degree)
            for f in factors))
        for c, (_, pairs) in zip(torsion, folded.parts):
            c.update(dict(pairs))
    return GradedAbelianGroup(tuple((int(d == 0), _chain_pairs(c)) for d, c in enumerate(torsion)))


def _chain_pairs(orders: Counter) -> list[tuple[int, int]]:
    """Invariant factors of {order: multiplicity}, ascending, as (order,
    multiplicity) pairs: the i-th largest is the product of the i-th largest
    power of each prime, which stays the same between the ends of the
    primes' runs of equal powers, so only those positions are evaluated."""
    towers = defaultdict(Counter)
    for order, mult in orders.items():
        for p, e in factorize(order):
            towers[p][p ** e] += mult
    runs = [sorted(t.items(), reverse=True) for t in towers.values()]
    ends = sorted({end for run in runs for end in accumulate(m for _, m in run)})
    chain, start = [], 0
    for end in ends:
        factor = 1
        for run in runs:  # the end-th largest power of each prime, 1 past its last
            seen = accumulate(m for _, m in run)
            factor *= next((q for (q, _), upto in zip(run, seen) if upto >= end), 1)
        chain.append((factor, end - start))
        start = end
    return chain[::-1]
