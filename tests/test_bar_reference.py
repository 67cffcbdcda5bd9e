"""The bar-construction reference: its known low-degree values, and the
p-parts of the package's p-primary models checked against it."""

import time
from functools import cache

from periodindex.bounds import factorize
from periodindex.complexes import primary_model_homology
from periodindex.graded import GradedAbelianGroup, primary_part
from bar_reference import bar_homology

CAP = 12


@cache
def bar_group(n):
    return GradedAbelianGroup(tuple((free, tuple(torsion.items()))
                                    for free, torsion in bar_homology(n, CAP)))


def test_known_values_for_z2():
    # H_2..8(K(Z/2, 2)) = Z/2, 0, Z/4, Z/2, Z/2, Z/2, Z/2 + Z/8
    assert [bar_group(2).describe(d) for d in range(2, 9)] == \
        ["Z/2", "0", "Z/4", "Z/2", "Z/2", "Z/2", "Z/2 + Z/8"]


def test_degree_four_is_gamma():
    # H_4(K(A, 2)) is Whitehead's Gamma(A): Z/2n for even n, Z/n for odd n
    for n in range(2, 31):
        assert bar_group(n).summands(4) == (0, (2 * n if n % 2 == 0 else n,)), n


def test_p_parts_match_the_primary_models():
    bar_group.cache_clear()  # the budget covers building the complexes too
    start = time.perf_counter()
    for n in range(2, 31):
        for p, r in factorize(n):
            assert primary_part(bar_group(n), p) == \
                primary_part(primary_model_homology(p, r, CAP), p), (n, p, r)
    assert time.perf_counter() - start < 3.0
