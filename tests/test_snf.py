"""Smith normal form and chain-complex homology."""

import ast
import random
from math import gcd, prod
from pathlib import Path

import pytest

import periodindex.packing
import periodindex.snf
from periodindex.complexes import ComplexKind, ElementaryComplex, realize_chain_complex
from periodindex.snf import (ChainComplex, DirectSum, IntegerMatrix, determinant,
                             homology_counts, homology_of_complex, smith_normal_form)


def rows(m):
    return m.to_rows()


def zeros(r, c):
    return IntegerMatrix(r, c, (0,) * (r * c))


class TestIntegerMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntegerMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([])  # needs cols

    @pytest.mark.parametrize("entry", [2.5, 2.0, "3", None])
    def test_non_int_entries_refused(self, entry):
        # int(x) would store 2 for 2.5, and a float left in made the SNF loop
        with pytest.raises(TypeError, match="^matrix entries must be int$"):
            IntegerMatrix.from_rows([[entry, 1]])
        with pytest.raises(TypeError, match="^matrix entries must be int$"):
            IntegerMatrix(1, 2, (entry, 1))
        with pytest.raises(TypeError):
            IntegerMatrix(2, 2, (1, 2, 3, 4))._replace(entries=(1, 2, 3, entry))

    def test_empty_matrices_are_first_class(self):
        z = IntegerMatrix.from_rows([], cols=3)
        assert (z.rows, z.cols) == (0, 3)
        assert zeros(3, 0).cols == 0

    def test_matmul(self):
        a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
        assert rows(a @ b) == [[2, 1], [4, 3]]

    def test_matmul_empty(self):
        a = zeros(0, 2)
        b = zeros(2, 3)
        assert (a @ b).rows == 0 and (a @ b).cols == 3


class TestSmithNormalForm:
    def test_diag_2_3(self):
        s = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
        assert s.invariant_factors == (1, 6)

    def test_zero_matrix(self):
        s = smith_normal_form(zeros(2, 3))
        assert s.invariant_factors == ()
        assert s.rank == 0

    def test_2_4_6_8(self):
        m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        # oracle: d1 is the gcd of the entries, d1*d2 = |det|
        d1 = gcd(2, 4, 6, 8)
        det = abs(determinant(m))
        assert (d1, det // d1) == (2, 4)
        assert smith_normal_form(m).invariant_factors == (2, 4)

    def test_empty_shapes(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            s = smith_normal_form(zeros(*shape))
            assert s.invariant_factors == ()

    def test_transforms_exact(self):
        for entries, factors in (([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (2, 2, 156)),
                                 ([[2, 4, 4], [-6, 6, 12]], (2, 6)),
                                 ([[0, 0], [0, 0], [0, 0]], ())):
            m = IntegerMatrix.from_rows(entries)
            s = smith_normal_form(m, with_transforms=True)
            assert s.invariant_factors == factors
            # U M V is diag(invariant factors) padded with zeros to M's shape
            diagonal = [[0] * m.cols for _ in range(m.rows)]
            for i, d in enumerate(factors):
                diagonal[i][i] = d
            assert rows(s.left @ m @ s.right) == diagonal
            assert abs(determinant(s.left)) == 1
            assert abs(determinant(s.right)) == 1

    def test_divisibility_chain_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
            f = smith_normal_form(m).invariant_factors
            assert all(b % a == 0 for a, b in zip(f, f[1:]))
            assert all(d > 0 for d in f)

    def test_invariance_under_unimodular_change(self):
        rng = random.Random(23)
        for _ in range(40):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
            p = _random_unimodular(rng, r)
            q = _random_unimodular(rng, c)
            assert smith_normal_form(p @ m @ q).invariant_factors == \
                smith_normal_form(m).invariant_factors

    def test_determinant_consistency(self):
        rng = random.Random(37)
        seen = 0
        while seen < 25:
            n = rng.randint(1, 6)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], cols=n)
            det = determinant(m)
            if det == 0:
                continue
            seen += 1
            assert prod(smith_normal_form(m).invariant_factors) == abs(det)

    def test_determinantal_divisors(self):
        # independent characterization: d_k = gcd(k x k minors) / gcd((k-1) minors)
        from itertools import combinations
        rng = random.Random(53)
        for _ in range(40):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)], cols=c)
            rows = m.to_rows()
            derived = []
            prev = 1
            for k in range(1, min(r, c) + 1):
                g = 0
                for ri in combinations(range(r), k):
                    for ci in combinations(range(c), k):
                        minor = IntegerMatrix.from_rows(
                            [[rows[i][j] for j in ci] for i in ri], cols=k)
                        g = gcd(g, determinant(minor))
                if g == 0:
                    break
                derived.append(g // prev)
                prev = g
            assert tuple(derived) == smith_normal_form(m).invariant_factors


def _random_unimodular(rng, n):
    m = IntegerMatrix.identity(n).to_rows()
    if n >= 2:
        for _ in range(rng.randint(1, 10)):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            for col in range(n):
                m[i][col] += c * m[j][col]
    return IntegerMatrix.from_rows(m, cols=n)


class TestDeterminant:
    def test_known_values(self):
        assert determinant(IntegerMatrix.from_rows([[2, 4], [6, 8]])) == -8
        assert determinant(IntegerMatrix.identity(4)) == 1
        assert determinant(zeros(3, 3)) == 0
        assert determinant(IntegerMatrix.identity(0)) == 1

    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], cols=n)
            b = IntegerMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], cols=n)
            assert determinant(a @ b) == determinant(a) * determinant(b)


class TestChainComplex:
    def test_shape_mismatch_rejected(self):
        dims = [1, 2]
        with pytest.raises(ValueError, match="shape mismatch in degree 1"):
            ChainComplex(dims, {1: [{0: 1}]})  # one column for two cells
        with pytest.raises(ValueError, match="shape mismatch in degree 1"):
            ChainComplex(dims, {1: [{0: 1}, {1: 1}]})  # row 1 of a 1-row boundary
        with pytest.raises(ValueError, match="shape mismatch in degree 1"):
            ChainComplex(dims, {1: [{-1: 1}, {}]})
        with pytest.raises(ValueError, match="shape mismatch in degree 1"):
            ChainComplex([0, 1], {1: [{0: 1}]})  # any row of a 0-row boundary
        assert ChainComplex(dims, {1: [{0: 2}, {0: 0}]}).columns(1) == ({0: 2}, {})
        assert ChainComplex([2, 2], {1: [{0: 0, 1: 3}, {1: 2}]}).columns(1) == ({1: 3}, {1: 2})

    def test_caller_input_not_aliased(self):
        # a column with a zero and one without: both must be copies
        boundary = [{0: 1, 1: 0}, {1: 2}]
        boundaries = {1: boundary}
        c = ChainComplex([2, 2], boundaries)
        boundary[0][0] = 5
        boundary[1][0] = 7
        boundary.append({})
        boundaries[2] = [{0: 1}]
        assert c.columns(1) == ({0: 1}, {1: 2})
        assert c.max_degree == 1

    def test_empty_or_negative_dims_rejected(self):
        with pytest.raises(ValueError, match="degree-0 rank"):
            ChainComplex([], {})
        with pytest.raises(ValueError, match="ranks must be >= 0"):
            ChainComplex([1, -1], {})

    def test_dense_boundary_rejected(self):
        with pytest.raises(TypeError):
            ChainComplex([1, 1], {1: IntegerMatrix.from_rows([[1]])})

    def test_dd_nonzero_rejected(self):
        # d2 = (1), d1 = (1): composite is nonzero
        with pytest.raises(ValueError, match="d o d != 0 between degrees 2 and 0"):
            ChainComplex([1, 1, 1], {1: [{0: 1}], 2: [{0: 1}]})
        c = ChainComplex([1, 1, 1], {1: [{0: 1}]})
        c.validate()

    def test_dd_checked_through_one_and_many_entry_columns(self):
        d1 = [{0: 2, 1: 3}, {}, {0: 4, 1: 6}]
        # one entry is zero exactly on an empty column below; several entries
        # only when their images cancel; a stored zero is dropped
        ChainComplex([2, 3, 2], {1: d1, 2: [{1: 5}, {0: 2, 1: 7, 2: -1}]})
        ChainComplex([2, 3, 1], {1: d1, 2: [{1: 4, 0: 0}]})
        for bad in ({0: 5}, {2: -1}, {0: 3, 2: -1}, {0: 1, 1: 1}, {1: 1, 2: 1}):
            with pytest.raises(ValueError, match="d o d != 0 between degrees 2 and 0"):
                ChainComplex([2, 3, 2], {1: d1, 2: [{1: 1}, bad]})

    def test_missing_boundaries_default_to_zero(self):
        c = ChainComplex([1, 0, 1, 2], {})
        assert c.columns(1) == ()
        assert c.columns(2) == ({},)
        assert c.columns(3) == ({}, {}) and c.columns(3)[0] is not c.columns(3)[1]
        assert homology_of_complex(c, 2) == (1, [])


def _package_imports(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found: wrong file?"
    return [name for name in imported
            if name.startswith(".") or name.split(".")[0] == "periodindex"]


def test_oracle_imports_no_other_periodindex_module():
    # the oracle must never learn the closed forms it is checked against: from
    # the package it imports only the series packing, a leaf that imports nothing
    assert _package_imports(periodindex.snf) == [".packing"]
    assert _package_imports(periodindex.packing) == []


class TestHomology:
    def test_zero_boundaries_give_basis_ranks(self):
        c = ChainComplex([2, 1, 0, 1], {})
        assert homology_of_complex(c, 0) == (2, [])
        assert homology_of_complex(c, 1) == (1, [])
        assert homology_of_complex(c, 2) == (0, [])

    def test_truncation_error_at_top_degree(self):
        c = ChainComplex([1, 1], {})
        assert homology_of_complex(c, 0) == (1, [])
        with pytest.raises(ValueError):
            homology_of_complex(c, 1)

    def test_direct_sum_keeps_torsion_as_counts(self):
        # 10^12 copies of Z/2 in one degree cost one count, as does their
        # merge with Z/3: Z/2 + Z/3 = Z/6, five times over
        two = ChainComplex([1, 1], {1: [{0: 2}]})
        three = ChainComplex([1, 1], {1: [{0: 3}]})
        big = 10 ** 12
        summed = DirectSum({(two, 0): big, (three, 0): 5, (three, 1): 7}, 3)
        assert summed.dims == (big + 5, big + 12, 7, 0)
        assert homology_counts(summed, 0) == (0, {2: big - 5, 6: 5})
        assert homology_counts(summed, 1) == (0, {3: 7})
        assert homology_of_complex(summed, 1) == (0, [3] * 7)

    def test_direct_sum_refuses_negative_bases_and_multiplicities(self):
        # a series holds no negative slot; the summands read back as given
        two = ChainComplex([1, 1], {1: [{0: 2}]})
        for summands in ({(two, -1): 1}, {(two, 0): -1}):
            with pytest.raises(ValueError, match=r"^base degrees and multiplicities must be >= 0$"):
                DirectSum(summands, 3)
        summed = DirectSum({(two, 0): 0, (two, 2): 5, (two, 4): 1}, 3)
        assert summed.summands == {(two, 2): 5}
        with pytest.raises(TypeError):
            summed.summands[two, 0] = 1
        # a complex with no cells still needs its multiplicity's slot width
        empty = ChainComplex([0], {})
        summed = DirectSum({(empty, 0): 256, (two, 0): 1}, 1)
        assert summed.summands == {(empty, 0): 256, (two, 0): 1}
        assert summed.dims == (1, 1)

    def test_negative_degree_is_named(self):
        # refused for the degree, not blamed on the truncation cap
        summed = DirectSum({(ChainComplex([1, 1], {1: [{0: 2}]}), 0): 3}, 4)
        for c in (ChainComplex([1, 0, 0, 0, 0], {}), summed):
            with pytest.raises(ValueError, match=r"^no homology in negative degree -1$"):
                homology_of_complex(c, -1)

    def test_ep_spot_value(self):
        # d(y) = 4x in degree 2 makes H_1 = Z/4
        chain = realize_chain_complex(
            ElementaryComplex(ComplexKind.EP_SECOND, q=1, h=4), 4)
        assert homology_of_complex(chain, 1) == (0, [4])

    def test_pe_spot_value(self):
        # degree 4 is gamma_2(x) modulo d(y gamma_1 x) = 3*2 gamma_2(x)
        chain = realize_chain_complex(
            ElementaryComplex(ComplexKind.PE_SECOND, q=1, h=3), 5)
        assert homology_of_complex(chain, 4) == (0, [6])
