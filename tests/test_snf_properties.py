"""Property tests: the block-by-block sparse Smith normal form against the
dense one, on scrambled block-diagonal matrices with repeated blocks, and
both against unimodular changes of basis, with sympy as an optional third
opinion; and the transforms U and V, which ride along in the same
reduction, on any small matrix."""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from periodindex.snf import (ChainComplex, IntegerMatrix, determinant, homology_of_complex,
                             smith_normal_form)

SETTINGS = settings(max_examples=80, deadline=None, database=None)

ENTRIES = st.integers(-6, 6)
# diagonal entries whose orders are pairwise coprime or nested, so that the
# blocks' factors only form one chain after the gcd/lcm merge
COPRIME_ORDERS = st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10, 15])


@st.composite
def block(draw):
    if draw(st.booleans()):
        return [[draw(COPRIME_ORDERS)]]
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]


@st.composite
def scrambled_block_diagonal(draw):
    """(dense block-diagonal matrix, its rows and columns scrambled as sparse columns)."""
    blocks = draw(st.lists(block(), min_size=1, max_size=6))
    blocks += draw(st.lists(st.sampled_from(blocks), max_size=2))  # repeats share one SNF
    rows = sum(len(b) for b in blocks)
    cols = sum(len(b[0]) for b in blocks)
    dense = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            dense[r0 + i][c0:c0 + len(row)] = row
        r0, c0 = r0 + len(b), c0 + len(b[0])
    row_perm = draw(st.permutations(range(rows)))
    col_perm = draw(st.permutations(range(cols)))
    columns = [{row_perm[i]: dense[i][j] for i in range(rows) if dense[i][j]} for j in col_perm]
    return IntegerMatrix.from_rows(dense, cols=cols), columns


def cokernel_complex(rows, columns):
    """Two-term complex with d_1 given by ``columns``, so H_0 = coker d_1."""
    return ChainComplex([rows, len(columns)], {1: columns})


@SETTINGS
@given(scrambled_block_diagonal())
def test_block_factors_equal_dense_factors(case):
    dense, columns = case
    reference = smith_normal_form(dense)
    torsion = tuple(f for f in reference.invariant_factors if f > 1)
    chain = cokernel_complex(dense.rows, columns)
    assert chain.boundary_invariants(1) == (reference.rank, dict(Counter(torsion)))
    assert homology_of_complex(chain, 0) == (dense.rows - reference.rank, list(torsion))


def test_coprime_blocks_merge_into_one_factor():
    # Z/2 + Z/3 is Z/6: blocks (2) and (3) must come out as (6,), not (2, 3)
    chain = cokernel_complex(3, [{2: 3}, {}, {0: 2}])
    assert chain.boundary_invariants(1) == (2, {6: 1})
    assert homology_of_complex(chain, 0) == (1, [6])


def test_transposed_blocks_with_equal_entries_keep_their_factors():
    # a 2x3 and a 3x2 block with the same flat entries, (1, 2, 3, 4, 5, 6),
    # whose factors differ (1, 3 against 1, 2), then one 2x2 block twice:
    # each block is reduced as its own matrix, as the dense SNF of the whole
    shapes = [(2, 3, [1, 2, 3, 4, 5, 6]), (3, 2, [1, 2, 3, 4, 5, 6]),
              (2, 2, [2, 4, 0, 6]), (2, 2, [2, 4, 0, 6])]
    rows = sum(r for r, _, _ in shapes)
    cols = sum(c for _, c, _ in shapes)
    dense = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for r, c, flat in shapes:
        for i in range(r):
            dense[r0 + i][c0:c0 + c] = flat[i * c:(i + 1) * c]
        r0, c0 = r0 + r, c0 + c
    columns = [{i: dense[i][j] for i in range(rows) if dense[i][j]} for j in range(cols)]
    reference = smith_normal_form(IntegerMatrix.from_rows(dense, cols=cols))
    chain = cokernel_complex(rows, columns)
    assert chain.boundary_invariants(1) == \
        (reference.rank, dict(Counter(f for f in reference.invariant_factors if f > 1)))


@st.composite
def unimodular(draw, n):
    """A product of elementary integer matrices: swaps, negations, shears."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("swap", "negate", "shear")))
        if kind == "swap":
            m[i], m[j] = m[j], m[i]
        elif kind == "negate":
            m[i] = [-x for x in m[i]]
        elif i != j:
            c = draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return IntegerMatrix.from_rows(m, cols=n)


@SETTINGS
@given(st.data())
def test_invariant_under_unimodular_change(data):
    dense, columns = data.draw(scrambled_block_diagonal())
    left = data.draw(unimodular(dense.rows))
    right = data.draw(unimodular(dense.cols))
    changed = left @ dense @ right
    assert smith_normal_form(changed).invariant_factors == \
        smith_normal_form(dense).invariant_factors
    changed_columns = [{i: row[j] for i, row in enumerate(changed.to_rows()) if row[j]}
                       for j in range(changed.cols)]
    assert cokernel_complex(changed.rows, changed_columns).boundary_invariants(1) == \
        cokernel_complex(dense.rows, columns).boundary_invariants(1)


@SETTINGS
@given(scrambled_block_diagonal())
def test_dense_factors_match_sympy(case):
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    dense, _ = case
    theirs = invariant_factors(Matrix(dense.to_rows()), domain=ZZ)
    assert smith_normal_form(dense).invariant_factors == tuple(abs(f) for f in theirs if f)


@st.composite
def small_matrix(draw):
    """(matrix of shape 0-8 x 0-8, bound on its rank): about a third are the
    product of a rows x k and a k x cols matrix with k below both sides."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if min(rows, cols) and draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, min(rows, cols) - 1))
        a = [[draw(ENTRIES) for _ in range(k)] for _ in range(rows)]
        b = [[draw(ENTRIES) for _ in range(cols)] for _ in range(k)]
        return IntegerMatrix.from_rows(
            [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)]
             for i in range(rows)], cols=cols), k
    return IntegerMatrix.from_rows(
        [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)], cols=cols), min(rows, cols)


@SETTINGS
@given(small_matrix())
def test_transforms_ride_along(case):
    m, max_rank = case
    plain = smith_normal_form(m)
    s = smith_normal_form(m, with_transforms=True)
    factors = s.invariant_factors
    assert (factors, s.rank) == (plain.invariant_factors, plain.rank)
    assert plain.left is plain.right is None
    assert s.rank == len(factors) <= max_rank
    assert all(f > 0 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    diagonal = [0] * (m.rows * m.cols)
    for i, f in enumerate(factors):
        diagonal[i * m.cols + i] = f
    assert (s.left.rows, s.right.cols) == (m.rows, m.cols)
    assert (s.left @ m @ s.right).entries == tuple(diagonal)
    assert abs(determinant(s.left)) == abs(determinant(s.right)) == 1
