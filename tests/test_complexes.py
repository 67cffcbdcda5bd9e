"""Elementary complexes, their chain realisations, and the tensor models."""

import pytest

from periodindex.bounds import padic_valuation
from periodindex.complexes import (ComplexKind, ElementaryComplex,
                                   closed_form_homology, exponent_bound,
                                   model_chain_complex, model_homology, primary_model,
                                   primary_model_chain_complex,
                                   primary_model_homology,
                                   realize_chain_complex, tensor_chain_complex)
from periodindex.graded import exponent
from periodindex.snf import ChainComplex, homology_of_complex

E = ComplexKind.EXTERIOR_FIRST
P = ComplexKind.DIVIDED_POWER_FIRST
EP = ComplexKind.EP_SECOND
PE = ComplexKind.PE_SECOND


def oracle_groups(chain, max_degree):
    return {n: homology_of_complex(chain, n) for n in range(max_degree + 1)}


def closed_groups(group):
    return {n: (group.summands(n)[0], list(group.summands(n)[1]))
            for n in range(group.max_degree + 1)}


class TestElementaryComplex:
    def test_twist_only_on_second_type(self):
        with pytest.raises(ValueError):
            ElementaryComplex(E, q=1, h=2)
        with pytest.raises(ValueError):
            ElementaryComplex(EP, q=1)
        with pytest.raises(ValueError):
            ElementaryComplex(PE, q=1, h=0)

    def test_generator_degrees(self):
        assert ElementaryComplex(E, 2).generator_degrees == (3,)
        assert ElementaryComplex(P, 2).generator_degrees == (4,)
        assert ElementaryComplex(EP, 2, 3).generator_degrees == (3, 4)
        assert ElementaryComplex(PE, 2, 3).generator_degrees == (4, 5)


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

    def test_exterior_first(self):
        h = closed_form_homology(ElementaryComplex(E, q=1), 5)
        assert h.nonzero_degrees() == [0, 1]
        assert h.summands(0) == (1, ()) and h.summands(1) == (1, ())

    def test_divided_power_first(self):
        h = closed_form_homology(ElementaryComplex(P, q=2), 13)
        assert h.nonzero_degrees() == [0, 4, 8, 12]

    def test_twist_one_leaves_only_degree_zero(self):
        h = closed_form_homology(ElementaryComplex(EP, q=1, h=1), 9)
        assert h.nonzero_degrees() == [0]

    def test_pe_odd_degrees_vanish(self):
        for q in (1, 2, 3):
            for h in (2, 5, 9):
                group = closed_form_homology(ElementaryComplex(PE, q, h), 25)
                assert all(d % 2 == 0 for d in group.nonzero_degrees())


class TestRealization:
    def test_pe_boundary_coefficient(self):
        # d(y gamma_1 x) = 2*2 gamma_2(x): entry 4 from degree 5 to degree 4
        chain = realize_chain_complex(ElementaryComplex(PE, q=1, h=2), 4)
        assert (chain.dim(4), chain.columns(5)) == (1, ({0: 4},))
        assert homology_of_complex(chain, 4) == (0, [4])

    def test_ep_boundary_coefficient(self):
        # d(gamma_1 y) = 3x: entry 3 from degree 4 to degree 3
        chain = realize_chain_complex(ElementaryComplex(EP, q=2, h=3), 7)
        assert (chain.dim(3), chain.columns(4)) == (1, ({0: 3},))
        assert homology_of_complex(chain, 3) == (0, [3])

    def test_first_type_boundaries_vanish(self):
        for c in (ElementaryComplex(E, 2), ElementaryComplex(P, 2)):
            chain = realize_chain_complex(c, 10)
            for n in range(1, chain.max_degree + 1):
                assert not any(chain.columns(n))

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
    def test_unit(self):
        c = realize_chain_complex(ElementaryComplex(PE, q=1, h=2), 5)
        unit = ChainComplex([["1"]], {})
        out = tensor_chain_complex(c, unit, 5)
        for n in range(out.max_degree + 1):
            if n <= c.max_degree:
                assert out.dim(n) == c.dim(n)
                if n >= 1:
                    assert out.columns(n) == c.columns(n)
            else:
                assert out.dim(n) == 0

    def test_koszul_sign(self):
        # a = x in odd degree 1, db = 2*x gamma_0(y): the a ox db column
        # picks up a minus sign
        left = realize_chain_complex(ElementaryComplex(E, q=1), 4)     # x in degree 1
        right = realize_chain_complex(ElementaryComplex(EP, q=1, h=2), 4)
        out = tensor_chain_complex(left, right, 3)
        labels3 = out.basis_labels[3]
        labels2 = out.basis_labels[2]
        col = labels3.index("x⊗y")        # x ox gamma_1(y), degrees 1 + 2
        row = labels2.index("x⊗x")        # x ox (x gamma_0(y)), degrees 1 + 1
        assert out.columns(3)[col][row] == -2

    def test_dd_zero_enforced(self):
        # a complex whose boundary is corrupted after it was checked still
        # cannot pass through a product: the product checks itself
        bad = ChainComplex([["a"], ["b"], ["c"]], {1: [{0: 1}]})
        bad._columns[2] = ({0: 1},)
        good = ChainComplex([["1"]], {})
        with pytest.raises(ValueError, match="d o d != 0"):
            tensor_chain_complex(bad, good, 2)

    def test_tensor_matches_kunneth_route(self):
        left = realize_chain_complex(ElementaryComplex(PE, q=1, h=2), 6)
        right = realize_chain_complex(ElementaryComplex(EP, q=3, h=2), 6)
        out = tensor_chain_complex(left, right, 6)
        expected = primary_model_homology(2, 1, 6)
        assert oracle_groups(out, 6) == closed_groups(expected)


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
                assert big.restrict(cap) == primary_model_homology(p, r, cap)

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
        assert g.summands(2) == (0, (2, 3))
        assert exponent(g, 2) == (6, 0)  # H_2(K(Z/6, 2)) = Z/6 by Hurewicz

    def test_order_four_degree_four(self):
        assert exponent(model_homology(4, 4), 4) == (8, 0)

    def test_prime_order_reduces_to_primary(self):
        for p in (2, 3, 5):
            assert model_homology(p, 10) == primary_model_homology(p, 1, 10)

    def test_order_six_degree_four(self):
        # Z/4 (+) Z/6 in degree 4; exponent 12 = n * k at k = 2
        g = model_homology(6, 4)
        assert g.summands(4) == (0, (4, 6))
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


class TestExponentBound:
    @pytest.mark.parametrize("p, r, k, expected", [
        (2, 1, 3, 2),
        (2, 1, 4, 8),
        (3, 2, 9, 81),
    ])
    def test_values(self, p, r, k, expected):
        assert exponent_bound(p, r, k) == expected

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            exponent_bound(2, 1, 0)


class TestModelChainComplex:
    def test_validates(self):
        chain = primary_model_chain_complex(2, 1, 10)
        chain.validate()
        assert chain.max_degree == 11

    def test_agrees_with_kunneth(self):
        for p, r, cap in ((2, 1, 10), (3, 1, 9)):
            chain = primary_model_chain_complex(p, r, cap)
            expected = primary_model_homology(p, r, cap)
            assert oracle_groups(chain, cap) == closed_groups(expected)

    @pytest.mark.parametrize("n, cap", [(6, 8), (12, 8), (10, 6), (30, 24)])
    def test_composite_order_agrees_up_to_isomorphism(self, n, cap):
        # SNF reports invariant factors while the graded group keeps orders
        # as produced (Z/2 + Z/3, not Z/6), so the comparison goes through
        # the invariant-factor form.
        chain = model_chain_complex(n, cap)
        expected = model_homology(n, cap)
        for d in range(cap + 1):
            free, torsion = homology_of_complex(chain, d)
            assert (free, tuple(torsion)) == \
                (expected.summands(d)[0], expected.invariant_factors(d))
        if n == 30:  # n * k = 330 at k = 11, but both routes find Z/660
            assert exponent(expected, 22) == (660, 0)
            assert homology_of_complex(chain, 22)[1][-1] == 660
