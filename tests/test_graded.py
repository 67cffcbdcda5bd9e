"""Graded abelian groups, exponents, primary parts, and the Kunneth rules of
the pairwise product the tests fold model homologies through."""

import json
import random
from math import lcm, prod

import pytest

from kunneth_reference import kunneth
from periodindex.graded import GradedAbelianGroup, exponent, primary_part


def G(summands, max_degree):
    return GradedAbelianGroup.from_summands(summands, max_degree)


class TestSummandRules:
    @staticmethod
    def order(a, b, degree):
        # the Kunneth product of Z/a and Z/b (0 is Z), both in degree 0, holds
        # their tensor product in degree 0 and their Tor in degree 1: its one
        # order there, or None where it is trivial
        free, torsion = kunneth(G({0: [a]}, 1), G({0: [b]}, 1), 1).summands(degree)
        (order,) = [0] * free + list(torsion) or [None]
        return order

    @pytest.mark.parametrize("a, b, expected", [
        (0, 4, 4),      # Z ox Z/4
        (4, 0, 4),
        (0, 0, 0),      # Z ox Z
        (4, 6, 2),
        (2, 3, None),   # coprime orders cancel
    ])
    def test_tensor(self, a, b, expected):
        assert self.order(a, b, 0) == expected

    @pytest.mark.parametrize("a, b, expected", [
        (0, 6, None),   # Tor vanishes against Z
        (6, 0, None),
        (4, 6, 2),
        (2, 2, 2),
        (2, 3, None),
    ])
    def test_tor(self, a, b, expected):
        assert self.order(a, b, 1) == expected


class TestCanonicalForm:
    def test_order_one_dropped_and_sorted(self):
        g = G({2: [4, 1, 2, 1]}, 5)
        assert g.summands(2) == (0, (2, 4))

    def test_free_separated(self):
        g = G({0: [0, 0, 3]}, 2)
        assert g.summands(0) == (2, (3,))

    def test_normalization_idempotent(self):
        g = G({0: [0], 3: [6, 2, 2]}, 7)
        rebuilt = G({d: [0] * g.summands(d)[0] + list(g.summands(d)[1])
                     for d in range(g.max_degree + 1)}, g.max_degree)
        assert rebuilt == g

    def test_content_above_cap_rejected(self):
        with pytest.raises(ValueError):
            G({5: [2]}, 4)

    def test_reads_past_cap_rejected(self):
        g = G({0: [0]}, 3)
        with pytest.raises(ValueError):
            g.summands(4)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            G({0: [-2]}, 1)


class TestKunneth:
    def test_spot_example(self):
        a = G({0: [0], 3: [4]}, 8)
        b = G({0: [0], 4: [2]}, 8)
        out = kunneth(a, b, 8)
        assert out.summands(0) == (1, ())
        assert out.summands(3) == (0, (4,))
        assert out.summands(4) == (0, (2,))
        assert out.summands(7) == (0, (2,))   # Z/4 ox Z/2
        assert out.summands(8) == (0, (2,))   # Tor(Z/4, Z/2), shifted by one
        assert out.nonzero_degrees() == [0, 3, 4, 7, 8]

    def test_unit(self):
        a = G({0: [0], 2: [2, 3], 5: [0, 8]}, 9)
        unit = G({0: [0]}, 9)
        assert kunneth(a, unit, 9) == a
        assert kunneth(unit, a, 9) == a

    def test_window_enforced(self):
        a = G({0: [0]}, 4)
        b = G({0: [0]}, 9)
        with pytest.raises(ValueError):
            kunneth(a, b, 5)
        assert kunneth(a, b, 4).max_degree == 4

    def test_symmetry_randomized(self):
        rng = random.Random(101)
        for _ in range(30):
            a = _random_group(rng)
            b = _random_group(rng)
            cap = min(a.max_degree, b.max_degree)
            assert kunneth(a, b, cap) == kunneth(b, a, cap)

    def test_associativity_randomized(self):
        # the model references fold their factors in any order
        rng = random.Random(202)
        for _ in range(20):
            a, b, c = (_random_group(rng) for _ in range(3))
            cap = min(a.max_degree, b.max_degree, c.max_degree)
            left = kunneth(kunneth(a, b, cap), c, cap)
            right = kunneth(a, kunneth(b, c, cap), cap)
            assert left == right

    def test_exponent_upper_bound(self):
        rng = random.Random(303)
        for _ in range(20):
            a = _random_group(rng)
            b = _random_group(rng)
            cap = min(a.max_degree, b.max_degree)
            out = kunneth(a, b, cap)
            for n in range(cap + 1):
                exp, _ = exponent(out, n)
                bound = 1
                for i in range(n + 1):
                    ea, _ = exponent(a, i)
                    if i <= n:
                        eb, _ = exponent(b, n - i)
                        bound = lcm(bound, lcm(ea, eb))
                    if n - 1 - i >= 0:
                        eb, _ = exponent(b, n - 1 - i)
                        bound = lcm(bound, lcm(ea, eb))
                assert bound % exp == 0


def _random_summands(rng):
    max_degree = rng.randint(0, 12)
    summands = {}
    for d in range(max_degree + 1):
        k = rng.randint(0, 5)
        if k:
            summands[d] = [rng.choice([0, 2, 3, 4, 5, 6, 8, 9, 12, 16]) for _ in range(k)]
    return summands, max_degree


def _random_group(rng):
    return G(*_random_summands(rng))


class TestInvariantFactors:
    # every group is built in invariant factors, so == is isomorphism
    def test_coprime_summands_merge(self):
        g = G({2: [2, 3]}, 2)
        assert g.summands(2) == (0, (6,))
        assert g == G({2: [6]}, 2)

    def test_mixed_orders(self):
        # Z/4 + Z/6 = Z/2 + Z/12
        g = G({1: [4, 6]}, 1)
        assert g.summands(1) == (0, (2, 12))
        assert g == G({1: [12, 2]}, 1)

    def test_chain_property_randomized(self):
        rng = random.Random(505)
        for _ in range(30):
            summands, max_degree = _random_summands(rng)
            g = G(summands, max_degree)
            for d, orders in summands.items():
                free, chain = g.summands(d)
                assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
                # same group as drawn: free rank, exponent and total order preserved
                torsion = [t for t in orders if t]
                assert free == orders.count(0)
                assert exponent(g, d) == (lcm(*torsion), free)
                assert prod(torsion) == prod(chain)

    def test_large_coprime_orders_merge_without_factorising(self):
        # two Mersenne primes: Z/x + Z/y = Z/xy by gcd and lcm alone, where
        # factorising xy is out of reach
        x, y = 2 ** 89 - 1, 2 ** 107 - 1
        g = G({1: [x, y]}, 1)
        assert g == G({1: [x * y]}, 1)
        assert exponent(g, 1) == (x * y, 0)


class TestExponent:
    def test_lcm(self):
        g = G({4: [2, 4]}, 5)
        assert exponent(g, 4) == (4, 0)

    def test_free_reported_separately(self):
        g = G({2: [0, 3]}, 3)
        assert exponent(g, 2) == (3, 1)

    def test_trivial_degree(self):
        g = G({0: [0]}, 3)
        assert exponent(g, 2) == (1, 0)

    def test_error_past_cap(self):
        g = G({0: [0]}, 3)
        with pytest.raises(ValueError):
            exponent(g, 4)


class TestPrimaryPart:
    def test_two_part_of_six(self):
        g = G({6: [6]}, 6)
        assert primary_part(g, 2).summands(6) == (0, (2,))

    def test_vanishing_part(self):
        g = G({6: [6]}, 6)
        assert primary_part(g, 5).nonzero_degrees() == []

    def test_free_dropped(self):
        g = G({0: [0], 2: [0, 0]}, 4)
        assert primary_part(g, 3).nonzero_degrees() == []

    @pytest.mark.parametrize("p", [4, 6, 1, 0, -2])
    def test_non_prime_refused(self, p):
        with pytest.raises(ValueError, match="^p must be a prime$"):
            primary_part(G({2: [8, 6]}, 2), p)

    def test_exponent_of_primary_part_is_prime_power(self):
        rng = random.Random(404)
        for _ in range(20):
            g = _random_group(rng)
            for p in (2, 3, 5):
                part = primary_part(g, p)
                for d in range(part.max_degree + 1):
                    exp, _ = exponent(part, d)
                    while exp % p == 0:
                        exp //= p
                    assert exp == 1


class TestJson:
    def test_round_trip(self):
        g = G({0: [0], 3: [2, 4], 7: [0, 0, 9]}, 9)
        expected = {str(d): {"free": 0, "torsion": []} for d in range(10)}
        expected |= {"0": {"free": 1, "torsion": []}, "3": {"free": 0, "torsion": ["2", "4"]},
                     "7": {"free": 2, "torsion": ["9"]}}
        assert json.loads(json.dumps(g.to_json())) == expected

    def test_orders_serialized_as_strings(self):
        g = G({1: [2 ** 80]}, 1)
        payload = g.to_json()
        assert payload["1"]["torsion"] == [str(2 ** 80)]

    def test_describe(self):
        g = G({2: [0, 0, 2, 4]}, 2)
        assert g.describe(2) == "Z^2 + Z/2 + Z/4"
        assert g.describe(0) == "0"
