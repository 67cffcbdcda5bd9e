"""Elementary complexes, their one-factor direct sums, and the tensor models."""

import time
from collections import Counter

import pytest

from periodindex import bounds, graded
from periodindex.bounds import padic_valuation
import periodindex.complexes
from periodindex.complexes import (ComplexKind, ElementaryComplex, _cone, _fold_order,
                                   closed_form_homology,
                                   model_chain_complex, model_homology, primary_model,
                                   primary_model_chain_complex,
                                   primary_model_homology,
                                   realize_chain_complex)
from periodindex.graded import GradedAbelianGroup, exponent, primary_part
from periodindex.snf import ChainComplex, homology_of_complex
from kunneth_reference import primary_model_homology as pairwise_fold, split_model_homology
from tensor_reference import per_kind_realization, tensor_chain_complex

EP = ComplexKind.EP_SECOND
PE = ComplexKind.PE_SECOND


def oracle_groups(chain, max_degree):
    return {n: homology_of_complex(chain, n) for n in range(max_degree + 1)}


def closed_groups(group):
    return {n: (group.summands(n)[0], list(group.summands(n)[1]))
            for n in range(group.max_degree + 1)}


class TestElementaryComplex:
    def test_twist_only_on_second_type(self):
        with pytest.raises(ValueError, match="twist"):
            ElementaryComplex(EP, q=1)
        with pytest.raises(ValueError, match="twist"):
            ElementaryComplex(PE, q=1, h=0)


class TestClosedFormHomology:
    def test_ep_spot(self):
        h = closed_form_homology(ElementaryComplex(EP, q=2, h=2), 12)
        assert closed_groups(h) == {
            0: (1, []), 3: (0, [2]), 7: (0, [2]), 11: (0, [2]),
            **{n: (0, []) for n in range(13) if n not in (0, 3, 7, 11)}}

    def test_pe_spot(self):
        h = closed_form_homology(ElementaryComplex(PE, q=1, h=2), 8)
        assert [h.describe(d) for d in range(9)] == \
            ["Z", "0", "Z/2", "0", "Z/4", "0", "Z/6", "0", "Z/8"]

    def test_twist_one_leaves_only_degree_zero(self):
        h = closed_form_homology(ElementaryComplex(EP, q=1, h=1), 9)
        assert h.nonzero_degrees() == [0]

    def test_pe_odd_degrees_vanish(self):
        for q in (1, 2, 3):
            for h in (2, 5, 9):
                group = closed_form_homology(ElementaryComplex(PE, q, h), 25)
                assert all(d % 2 == 0 for d in group.nonzero_degrees())


def realised(factors, max_degree):
    return [per_kind_realization(f, max_degree) for f in factors]


def edges(chain):
    """{base degree: degree-1 columns} of each edge cone summand of a
    one-factor direct sum."""
    return {base: shape.columns(1) for (shape, base) in chain.summands if shape.max_degree}


class TestRealization:
    def test_matches_the_per_kind_construction(self):
        # both kinds, q 1-4, h 1-9, caps 0-60
        cases = 0
        for kind in ComplexKind:
            for q in range(1, 5):
                for h in range(1, 10):
                    c = ElementaryComplex(kind, q, h)
                    for cap in range(61):
                        reference = per_kind_realization(c, cap)
                        chain = realize_chain_complex(c, cap)
                        assert chain.dims == reference.dims, (c, cap)
                        assert chain.max_degree == reference.max_degree == cap + 1, (c, cap)
                        assert oracle_groups(chain, cap) == oracle_groups(reference, cap), (c, cap)
                        cases += 1
        assert cases == 4392

    def test_pe_boundary_coefficient(self):
        # d(y gamma_1 x) = 2*2 gamma_2(x): the edge cone based in degree 4
        # has entry 4 from its degree 1 to its degree 0
        chain = realize_chain_complex(ElementaryComplex(PE, q=1, h=2), 4)
        assert edges(chain) == {2: ({0: 2},), 4: ({0: 4},)}
        assert chain.dim(4) == 1
        assert homology_of_complex(chain, 4) == (0, [4])

    def test_ep_boundary_coefficient(self):
        # d(gamma_1 y) = 3x: the edge cone based in degree 3 has entry 3
        chain = realize_chain_complex(ElementaryComplex(EP, q=2, h=3), 7)
        assert edges(chain) == {3: ({0: 3},), 7: ({0: 3},)}
        assert chain.dim(3) == 1
        assert homology_of_complex(chain, 3) == (0, [3])

    def test_one_degree_above_cap(self):
        chain = realize_chain_complex(ElementaryComplex(PE, q=1, h=2), 6)
        assert chain.max_degree == 7

    def test_closed_form_matches_oracle(self):
        for kind in (EP, PE):
            for q in (1, 2):
                for h in (2, 3, 5):
                    c = ElementaryComplex(kind, q, h)
                    chain = realize_chain_complex(c, 15)
                    assert oracle_groups(chain, 15) == \
                        closed_groups(closed_form_homology(c, 15))


class TestTensor:
    # the package's one product, _cone, and the test-side reference fold
    def test_unit(self):
        c = per_kind_realization(ElementaryComplex(PE, q=1, h=2), 5)
        unit = ChainComplex([1], {})
        out = tensor_chain_complex([c, unit], 5)
        for n in range(out.max_degree + 1):
            if n <= c.max_degree:
                assert out.dim(n) == c.dim(n)
                if n >= 1:
                    assert out.columns(n) == c.columns(n)
            else:
                assert out.dim(n) == 0

    def test_empty_product_is_the_unit(self):
        out = tensor_chain_complex([], 3)
        assert out.dims == (1, 0, 0, 0, 0)

    def test_koszul_sign(self):
        # a = x in odd degree 1 and d(e1) = 2 e0: the cone's column of x ox e1
        # is dx ox e1 - 2 x ox e0, a minus sign
        left = ChainComplex([1, 1, 0, 0], {})  # 1 and x, degrees 0, 1, to degree 3
        out = _cone(left, 2)
        # degree n lists a ox e0 for a in A_n, then a ox e1 for a in A_(n-1)
        assert out.dims == (1, 2, 1, 0, 0)
        assert out.columns(1) == ({}, {0: 2})   # x ox e0, then 1 ox e1
        assert out.columns(2) == ({0: -2},)     # x ox e1
        assert oracle_groups(out, 3) == \
            oracle_groups(tensor_chain_complex([left, ChainComplex([1, 1], {1: [{0: 2}]})], 3), 3)

    def test_dd_zero_enforced(self):
        # a shape whose boundary is corrupted after it was checked still
        # cannot pass through a cone: the cone checks itself
        bad = ChainComplex([1, 1, 1], {1: [{0: 1}]})
        bad._columns[2] = ({0: 1},)
        with pytest.raises(ValueError, match="d o d != 0"):
            _cone(bad, 1)

    def test_dd_zero_enforced_through_middle_factor(self):
        # the product is checked once, as a whole: a corrupted middle factor
        # still shows, since every factor has a degree-0 cell with d = 0
        left = per_kind_realization(ElementaryComplex(PE, q=1, h=2), 2)
        bad = ChainComplex([1, 1, 1], {1: [{0: 1}]})
        bad._columns[2] = ({0: 1},)
        right = per_kind_realization(ElementaryComplex(EP, q=1, h=3), 2)
        with pytest.raises(ValueError, match="d o d != 0"):
            tensor_chain_complex([left, bad, right], 2)

    def test_tensor_matches_kunneth_route(self):
        left = per_kind_realization(ElementaryComplex(PE, q=1, h=2), 6)
        right = per_kind_realization(ElementaryComplex(EP, q=3, h=2), 6)
        out = tensor_chain_complex([left, right], 6)
        expected = primary_model_homology(2, 1, 6)
        assert oracle_groups(out, 6) == closed_groups(expected)

    def test_product_of_products(self):
        # factors of rank >= 2 in a degree: every column sits where the
        # docstring puts a ox b, and the homology is the flat product's
        cap = 9
        ep = realised([ElementaryComplex(EP, q, h) for q, h in ((1, 2), (2, 3))], cap)
        pe = realised([ElementaryComplex(PE, q, h) for q, h in ((1, 4), (2, 2))], cap)
        left, right = tensor_chain_complex(ep, cap), tensor_chain_complex(pe, cap)
        out = tensor_chain_complex([left, right], cap)
        assert max(left.dims) > 1 and max(right.dims) > 1

        def offset(d, i):
            return sum(left.dim(k) * right.dim(d - k) for k in range(i))
        for d in range(1, out.max_degree + 1):
            expected = []
            for i in range(d + 1):
                j = d - i
                for a in range(left.dim(i)):
                    da = left.columns(i)[a] if i else {}
                    for b in range(right.dim(j)):
                        db = right.columns(j)[b] if j else {}
                        col = {offset(d - 1, i - 1) + r * right.dim(j) + b: x
                               for r, x in da.items()}
                        col.update({offset(d - 1, i) + a * right.dim(j - 1) + r: (-1) ** i * x
                                    for r, x in db.items()})
                        expected.append(col)
            assert list(out.columns(d)) == expected
        assert oracle_groups(out, cap) == oracle_groups(tensor_chain_complex(ep + pe, cap), cap)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("r", [1, 2])
    def test_factor_order_leaves_homology(self, p, r):
        # the order changes the basis, not the homology; the oracle route
        # folds the sparsest factor first, so the dense P(2) ox E(3) goes last
        for cap in range(43):
            factors = primary_model(p, r, cap)
            chains = realised(_fold_order(factors), cap)
            cells = [sum(c.dims) for c in chains]
            assert cells == sorted(cells)
            assert len(factors) == 1 or chains[-1].dims[1:4] == (0, 1, 1)
            in_model_order = tensor_chain_complex(realised(factors, cap), cap)
            assert oracle_groups(in_model_order, cap) == \
                oracle_groups(primary_model_chain_complex(p, r, cap), cap)


class TestPrimaryModel:
    def test_factor_list_p2(self):
        kinds = [(f.kind, f.q, f.h) for f in primary_model(2, 1, 12)]
        assert kinds == [(PE, 1, 2), (EP, 3, 2), (EP, 5, 2)]

    def test_factor_list_p5_r2(self):
        assert [(f.kind, f.q, f.h) for f in primary_model(5, 2, 10)] == [(PE, 1, 25)]

    def test_factor_list_p3(self):
        assert [(f.kind, f.q, f.h) for f in primary_model(3, 1, 6)] == \
            [(PE, 1, 3)]

    def test_omitted_factors_are_silent_below_cap(self):
        # the first omitted factor has no positive-degree homology under the cap
        k = len(primary_model(2, 1, 12)) - 1  # next EP factor index
        next_factor = ElementaryComplex(EP, q=1 + 2 ** (k + 1), h=2)
        h = closed_form_homology(next_factor, 12)
        assert h.nonzero_degrees() == [0]


class TestPrimaryModelHomology:
    def test_p2_r1_cap6(self):
        g = primary_model_homology(2, 1, 6)
        assert {d: g.describe(d) for d in g.nonzero_degrees()} == {
            0: "Z", 2: "Z/2", 4: "Z/4", 5: "Z/2", 6: "Z/6"}

    def test_degree4_exponent(self):
        assert exponent(primary_model_homology(2, 1, 4), 4) == (4, 0)

    def test_p3_r2(self):
        g = primary_model_homology(3, 2, 2)
        assert {d: g.describe(d) for d in g.nonzero_degrees()} == {0: "Z", 2: "Z/9"}

    def test_degree_zero_is_z(self):
        for p, r in ((2, 1), (3, 1), (5, 2)):
            assert primary_model_homology(p, r, 8).summands(0) == (1, ())

    def test_truncation_soundness(self):
        for p, r in ((2, 1), (3, 2)):
            big = primary_model_homology(p, r, 20)
            for cap in (0, 5, 12, 19):
                below = GradedAbelianGroup(big.parts[:cap + 1])
                assert below == primary_model_homology(p, r, cap)

    @pytest.mark.parametrize("p, cap", [(2, 200), (3, 300), (5, 400)])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_series_equals_the_kunneth_fold_at_depth(self, p, r, cap):
        # the deepest prime-power queries of the kunneth benchmark, and r to
        # 4: the series gives the pairwise Kunneth fold of the factors'
        # closed forms
        assert primary_model_homology(p, r, cap).parts == pairwise_fold(p, r, cap).parts

    def test_first_factor_dominates_p_part(self):
        for p, r in ((2, 1), (2, 2), (3, 1)):
            whole = primary_model_homology(p, r, 16)
            leading = closed_form_homology(
                primary_model(p, r, 16)[0], 16)
            for k in range(1, 9):
                exp_whole, _ = exponent(whole, 2 * k)
                exp_lead, _ = exponent(leading, 2 * k)
                assert p ** padic_valuation(p, exp_whole) == \
                    p ** padic_valuation(p, exp_lead)


class TestModelHomology:
    def test_order_six(self):
        g = model_homology(6, 2)
        assert g.summands(2) == (0, (6,))
        assert exponent(g, 2) == (6, 0)  # H_2(K(Z/6, 2)) = Z/6 by Hurewicz

    def test_order_four_degree_four(self):
        assert exponent(model_homology(4, 4), 4) == (8, 0)

    def test_prime_order_reduces_to_primary(self):
        for p in (2, 3, 5):
            assert model_homology(p, 10) == primary_model_homology(p, 1, 10)

    def test_order_six_degree_four(self):
        # Z/2 (+) Z/12 (Z/4 (+) Z/6 in invariant factors); exponent 12 = n * k at k = 2
        g = model_homology(6, 4)
        assert g.summands(4) == (0, (2, 12))
        assert exponent(g, 4) == (12, 0)

    def test_exponent_divides_n_times_k(self):
        for n in (2, 3, 4, 6, 12):
            g = model_homology(n, 12)
            for k in range(1, 7):
                exp, _ = exponent(g, 2 * k)
                assert (n * k) % exp == 0

    def test_rejects_trivial_order(self):
        with pytest.raises(ValueError):
            model_homology(1, 4)

    def test_builds_one_group_and_factorises_small_numbers(self, monkeypatch):
        # composite n is read off level counts: the result is the one group
        # built, with no closed form, which any fold of the factors reads,
        # and nothing past max(n, cap) is factorised
        built, factorised = [], []
        real_new, real_factorize = GradedAbelianGroup.__new__, bounds.factorize

        def counting_new(cls, parts):
            built.append(cls)
            return real_new(cls, parts)

        def spying_factorize(m):
            factorised.append(m)
            return real_factorize(m)

        def no_closed_form(*args):
            raise AssertionError("a model read a factor's closed form")

        monkeypatch.setattr(GradedAbelianGroup, "__new__", counting_new)
        assert not hasattr(graded, "factorize")  # groups merge orders without factorising
        for module in (bounds, periodindex.complexes):
            monkeypatch.setattr(module, "factorize", spying_factorize)
        monkeypatch.setattr(periodindex.complexes, "closed_form_homology", no_closed_form)
        n, cap = 2 * 1000003, 40
        g = model_homology(n, cap)
        assert built == [GradedAbelianGroup]
        assert max(factorised) <= max(n, cap)
        assert exponent(g, 2 * 20) == (n * 20, 0)

        # a prime power is read off its mod-p series: no factorising at all
        built.clear()
        factorised.clear()
        start = time.perf_counter()
        g = primary_model_homology(2, 20000, 6)
        assert time.perf_counter() - start < 0.5
        assert built == [GradedAbelianGroup]
        assert factorised == []
        assert exponent(g, 6) == (3 * 2 ** 20000, 0)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 4, 5, 7, 12, 20, 31, 40, 60, 80])
    def test_level_counts_equal_the_split_fold(self, cap):
        # every n <= 120 that is not a prime (prime powers take the series of
        # one prime), and 510510 = 2*3*5*7*11*13*17, against the fold that
        # split every factor's torsion into prime powers
        for n in [m for m in range(4, 121) if not bounds.is_prime(m)] + [510510]:
            assert model_homology(n, cap).parts == split_model_homology(n, cap).parts, n

    @pytest.mark.parametrize("n, cap", [
        (30, 74), (360, 74), (30, 60), (360, 60), (210, 48), (330, 48), (2310, 40),
        (10, 80), (18, 76), (30030, 60), (360, 200), (30, 200), (6, 300), (12, 250),
        (2 ** 40 * 3, 30), (2 * 1000003, 40)])
    def test_level_counts_equal_the_split_fold_at_depth(self, n, cap):
        # the kunneth benchmark's composite tiers and criterion 9's order,
        # deep caps, a long run of levels and a prime past cap / 2
        assert model_homology(n, cap).parts == split_model_homology(n, cap).parts


def test_closed_forms_never_reach_the_merge(monkeypatch):
    # the closed forms build every degree as a divisibility chain themselves:
    # the constructor's gcd/lcm merge, shared with the SNF oracle, is never run
    def no_merge(counts):
        raise AssertionError(f"a closed form merged {counts}")

    monkeypatch.setattr(graded, "_divisibility_chain", no_merge)
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            for cap in (0, 1, 2, 3, 7, 30, 64, 200):
                primary_part(primary_model_homology(p, r, cap), p)
    for n in range(2, 121):
        for cap in (0, 1, 4, 5, 12, 30):
            model_homology(n, cap)
    for q in (1, 2, 3):
        for kind in ComplexKind:
            for h in (1, 2, 6, 12):
                closed_form_homology(ElementaryComplex(kind, q, h), 40)


class TestExponentBound:
    # the p-part of the degree-2k torsion exponent of the p-primary model,
    # p^(r + v_p(k)): the factor Theorem A multiplies, read off the homology
    @pytest.mark.parametrize("p, r, k, expected", [
        (2, 1, 3, 2),
        (2, 1, 4, 8),
        (3, 2, 9, 81),
    ])
    def test_values(self, p, r, k, expected):
        exp, _ = exponent(primary_model_homology(p, r, 2 * k), 2 * k)
        assert exp == p ** r * k
        assert p ** padic_valuation(p, exp) == expected


class TestModelChainComplex:
    def test_validates(self):
        # a direct sum has no d o d of its own to check: each distinct shape
        # is a chain complex, and the shapes, translated and counted, have
        # the chain ranks of the whole product at the same cap
        chain = primary_model_chain_complex(2, 1, 10)
        whole = tensor_chain_complex(realised(_fold_order(primary_model(2, 1, 10)), 10), 10)
        dims = [0] * 12
        for (shape, base), m in chain.summands.items():
            shape.validate()
            for n, d in enumerate(shape.dims[:12 - base], base):
                dims[n] += m * d
        assert chain.max_degree == whole.max_degree == 11
        assert tuple(dims) == chain.dims == whole.dims

    def test_summands_match_the_materialised_product(self):
        # the reference is the whole tensor product, folded in the same order
        for p in (2, 3, 5):
            for r in (1, 2, 3):
                for cap in range(0, 61, 3):
                    factors = primary_model(p, r, cap)
                    whole = tensor_chain_complex(realised(_fold_order(factors), cap), cap)
                    summands = primary_model_chain_complex(p, r, cap)
                    assert summands.dims == whole.dims, (p, r, cap)
                    assert oracle_groups(summands, cap) == oracle_groups(whole, cap), (p, r, cap)

    @pytest.mark.parametrize("p, r", [(2, 1), (3, 2), (5, 1)])
    def test_caps_are_sub_sums(self, p, r):
        # folded in an order no cap changes, the model below its cap is the
        # sub-sum of the model at any larger cap, shape for shape
        def below(chain, cap):
            return Counter({(shape.dims, tuple(tuple(sorted(col.items()))
                                               for n in range(1, shape.max_degree + 1)
                                               for col in shape.columns(n)), base): m
                            for (shape, base), m in chain.summands.items() if base <= cap})

        big = primary_model_chain_complex(p, r, 70)
        for cap in range(70):
            assert below(primary_model_chain_complex(p, r, cap), cap) == below(big, cap), cap

    def test_agrees_with_kunneth(self):
        for p, r, cap in ((2, 1, 10), (3, 1, 9)):
            chain = primary_model_chain_complex(p, r, cap)
            expected = primary_model_homology(p, r, cap)
            assert oracle_groups(chain, cap) == closed_groups(expected)

    def test_oracle_never_realises_a_factor(self, monkeypatch):
        # the summand oracle reads each factor's components straight off its
        # kind, q and h: it builds and answers with realisation unavailable
        def refuse(*args):
            raise AssertionError("realize_chain_complex called on the oracle route")

        monkeypatch.setattr(periodindex.complexes, "realize_chain_complex", refuse)
        chain = primary_model_chain_complex(3, 1, 76)
        assert oracle_groups(chain, 76) == closed_groups(primary_model_homology(3, 1, 76))

    @pytest.mark.parametrize("n, cap", [(6, 8), (12, 8), (10, 6), (30, 24)])
    def test_composite_order_agrees_up_to_isomorphism(self, n, cap):
        chain = model_chain_complex(n, cap)
        expected = model_homology(n, cap)
        for d in range(cap + 1):
            free, torsion = homology_of_complex(chain, d)
            assert (free, tuple(torsion)) == expected.summands(d)
        if n == 30:  # n * k = 330 at k = 11, but both routes find Z/660
            assert exponent(expected, 22) == (660, 0)
            assert homology_of_complex(chain, 22)[1][-1] == 660
