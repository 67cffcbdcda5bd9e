"""The bar construction on Cartan's small model of K(Z/n, 1), kept test-side
as a model-free reference for H_*(K(Z/n, 2)).

Eilenberg and MacLane compute the integral homology of K(Pi, n) by
iterating the bar construction ("On the groups H(Pi, n), I", Ann. of Math.
58, 1953): H_*(K(Z/n, 2)) = H_*(B(A)) for a commutative DGA A of chains on
K(Z/n, 1).  Cartan's small model of A (*Seminaire H. Cartan* 1954/55) is
X = E(x, 1) ox P(y, 2) with d(y) = n*x: one basis element e_a per degree
a >= 0, with e_a e_b = C(a//2 + b//2, a//2) e_(a+b) unless a and b are both
odd (then 0), d(e_(2j)) = n e_(2j-1) and d = 0 in odd degrees.  For n = 2,
X is B(Z[Z/2]) itself.

A cell of the reduced bar construction B(X) is a tuple (a_1, ..., a_k) with
every a_i >= 1, in degree sum(a_i + 1); degree d holds F(d - 1) of them.
The reference learns no model, Kunneth or Tor rule and no closed form of
the package: ``ChainComplex`` checks d o d = 0, and ``homology_counts``
reads the homology.
"""

from math import comb

from periodindex.snf import ChainComplex, homology_counts


def bar_complex(n: int, max_degree: int) -> ChainComplex:
    """B(X) for Z/n, truncated at ``max_degree`` + 1.

    The cells of degree d are those of lower degree with a first part of
    a + 1 >= 2 prepended.  At position i, the internal term d(e_(a_i)) has
    the sign (-1)^(sum over j < i of (a_j + 1)), and the product
    e_(a_i) e_(a_(i+1)) the sign (-1)^(sum over j <= i of (a_j + 1)).
    """
    top = max_degree + 1
    cells = [[()]] + [[] for _ in range(top)]
    for d in range(2, top + 1):
        cells[d] = [(m - 1, *rest) for m in range(2, d + 1) for rest in cells[d - m]]
    boundaries = {}
    for d in range(2, top + 1):
        below, boundaries[d] = {c: i for i, c in enumerate(cells[d - 1])}, []
        for c in cells[d]:
            column, sign = {}, 1
            for i, a in enumerate(c):
                if a % 2 == 0:  # d(e_a) = n e_(a-1), and a + 1 is odd
                    column[below[(*c[:i], a - 1, *c[i + 1:])]] = sign * n
                    sign = -sign
                if i + 1 < len(c) and (a % 2 == 0 or c[i + 1] % 2 == 0):
                    b = c[i + 1]
                    column[below[(*c[:i], a + b, *c[i + 2:])]] = sign * comb(a // 2 + b // 2,
                                                                              a // 2)
            boundaries[d].append(column)
    return ChainComplex([len(c) for c in cells], boundaries)


def bar_homology(n: int, max_degree: int) -> list[tuple[int, dict[int, int]]]:
    """H_0..max_degree(K(Z/n, 2)) as ``homology_counts`` of ``bar_complex``."""
    chain = bar_complex(n, max_degree)
    return [homology_counts(chain, d) for d in range(max_degree + 1)]
