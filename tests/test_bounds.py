"""Period-index arithmetic: valuations, per-prime bounds, reports."""

import random
import sys
from fractions import Fraction
from math import factorial, gcd, prod

import pytest

from periodindex import bounds
from periodindex.bounds import (PRIME_CEILING, CeilingError, decimal_string,
                                differential_order_bound, factorize, index_bound,
                                is_prime, known_sharp_bound, legendre_valuation,
                                padic_valuation, prime_power_index_bound)


class TestNumberTheory:
    def test_is_prime(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_factorize(self):
        assert factorize(1) == []
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(97) == [(97, 1)]
        with pytest.raises(ValueError):
            factorize(0)

    # strong pseudoprimes to every base among the first 8, 9 and 12 primes
    # (psi_8, psi_9, psi_12 of Sorenson and Webster): a test with fewer
    # bases than 13 would call them prime
    @pytest.mark.parametrize("n", [341550071728321, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)
        factors = factorize(n)
        assert len(factors) > 1 and prod(p ** e for p, e in factors) == n

    def test_last_trial_prime_divides_out(self):
        # trial division runs through every prime below 1000 and leaves 1
        assert factorize(997 ** 2) == [(997, 2)]
        assert factorize(6 * 997 ** 3) == [(2, 1), (3, 1), (997, 3)]

    def test_large_primes_and_prime_powers(self):
        assert is_prime(2 ** 61 - 1)
        assert is_prime(PRIME_CEILING - 168)  # the largest prime below the ceiling
        assert not any(map(is_prime, range(PRIME_CEILING - 167, PRIME_CEILING)))
        assert factorize(2 ** 100) == [(2, 100)]
        assert factorize((2 ** 31 - 1) ** 2 * 1009) == [(1009, 1), (2 ** 31 - 1, 2)]
        assert factorize(3 ** 40 * (2 ** 61 - 1)) == [(3, 40), (2 ** 61 - 1, 1)]

    def test_ceiling_refused(self):
        assert not is_prime(PRIME_CEILING - 1)  # PRIME_CEILING - 1 is even
        with pytest.raises(CeilingError):
            is_prime(PRIME_CEILING)
        with pytest.raises(CeilingError):
            factorize(PRIME_CEILING)  # psi_13 has no factor below 1000
        # past the ceiling, but nothing is left after trial division
        assert factorize(6 * 2 ** 100) == [(2, 101), (3, 1)]
        assert issubclass(CeilingError, ValueError)

    @pytest.mark.parametrize("p, m, expected", [(2, 12, 2), (3, 12, 1), (5, 12, 0)])
    def test_padic_valuation(self, p, m, expected):
        assert padic_valuation(p, m) == expected

    @pytest.mark.parametrize("p, m, expected", [(2, 3, 1), (3, 3, 1), (2, 6, 4)])
    def test_legendre_valuation(self, p, m, expected):
        assert legendre_valuation(p, m) == expected

    @pytest.mark.parametrize("p", [4, 6, 9, 1, 0])
    def test_legendre_valuation_refuses_a_p_that_is_not_prime(self, p):
        # the Legendre sum for p = 4, m = 8 is 2, but 4^3 divides 8!
        with pytest.raises(ValueError, match=r"^p must be a prime$"):
            legendre_valuation(p, 8)

    def test_legendre_equals_sum_of_valuations(self):
        for p in (2, 3, 5, 7):
            for m in range(41):
                assert legendre_valuation(p, m) == \
                    sum(padic_valuation(p, j) for j in range(2, m + 1))


class TestDifferentialOrderBound:
    @pytest.mark.parametrize("p, r, j, expected", [
        (2, 1, 1, 2),
        (2, 1, 2, 4),
        (2, 1, 3, 2),
        (2, 1, 4, 8),
        (3, 2, 9, 81),
    ])
    def test_values(self, p, r, j, expected):
        assert differential_order_bound(p, r, j) == expected

    def test_rejects_j_zero(self):
        with pytest.raises(ValueError):
            differential_order_bound(2, 1, 0)


class TestPrimePowerIndexBound:
    @pytest.mark.parametrize("p, r, d, expected", [
        (2, 1, 3, 8),
        (2, 1, 1, 1),   # empty product
        (7, 3, 1, 1),
        (2, 1, 2, 2),   # forces ind = per at d = 2
    ])
    def test_values(self, p, r, d, expected):
        assert prime_power_index_bound(p, r, d) == expected

    def test_two_routes_agree(self):
        # the product of the per-differential bounds equals the closed form
        for p in (2, 3, 5, 7):
            for r in (1, 2, 3):
                for d in range(1, 11):
                    closed = p ** ((d - 1) * r + legendre_valuation(p, d - 1))
                    via_product = prod(differential_order_bound(p, r, j) for j in range(1, d))
                    assert prime_power_index_bound(p, r, d) == closed == via_product

    def test_divisibility_in_d(self):
        for p in (2, 3, 5):
            for r in (1, 2):
                for d in range(1, 10):
                    assert prime_power_index_bound(p, r, d + 1) % \
                        prime_power_index_bound(p, r, d) == 0

    @pytest.mark.parametrize("f, args", [
        # Theorem A for n = 6, d = 4 is 1296, not the 216 that 6^3 would give
        (prime_power_index_bound, (6, 1, 4)),
        (prime_power_index_bound, (4, 2, 3)),
        (prime_power_index_bound, (1, 1, 1)),
        (differential_order_bound, (4, 1, 2)),
        (differential_order_bound, (9, 1, 1)),
        (differential_order_bound, (0, 1, 1)),
    ])
    def test_composite_p_refused(self, f, args):
        # index_bound passes only the primes of n; these two are public, so
        # a p that is not prime is refused on one line instead of answered
        with pytest.raises(ValueError, match=r"^p must be a prime$"):
            f(*args)


class TestIndexBound:
    def test_period_two_dimension_six(self):
        assert index_bound(2, 3).theorem_a_bound == 8

    def test_period_six_dimension_eight(self):
        report = index_bound(6, 4)
        assert report.theorem_a_bound == 1296
        assert report.prime_breakdown == ((2, 1, 16), (3, 1, 81))
        assert not report.corollary_b_applies

    def test_coprime_case(self):
        report = index_bound(5, 4)
        assert report.theorem_a_bound == 125
        assert report.corollary_b_applies

    def test_trivial_class(self):
        assert index_bound(1, 5).theorem_a_bound == 1

    def test_primes_of_n_not_tested_again(self, monkeypatch):
        # below 10^6, factorize finds every prime by trial division alone, and
        # index_bound takes its primes as found: no is_prime call at all
        ns = (2, 6, 360, 30030, 65536, 999983, 2 * 499979, 997 * 997, 999999)
        expected = {(n, d): prod(prime_power_index_bound(p, r, d) for p, r in factorize(n))
                    for n in ns for d in (1, 2, 5, 30)}

        def no_test(m):
            raise AssertionError(f"is_prime({m}) called")

        monkeypatch.setattr(bounds, "is_prime", no_test)
        assert {key: index_bound(*key).theorem_a_bound for key in expected} == expected

    def test_report_invariants(self):
        rng = random.Random(9)
        for _ in range(50):
            n, d = rng.randint(1, 80), rng.randint(1, 8)
            report = index_bound(n, d)
            prod = 1
            nn = 1
            for p, r, bound in report.prime_breakdown:
                prod *= bound
                nn *= p ** r
            assert prod == report.theorem_a_bound
            assert nn == n
            if report.corollary_b_applies:
                assert report.theorem_a_bound == n ** (d - 1)

    def test_multiplicative_over_coprime_factors(self):
        rng = random.Random(13)
        checked = 0
        while checked < 80:
            n1, n2 = rng.randint(1, 50), rng.randint(1, 50)
            if gcd(n1, n2) != 1:
                continue
            d = rng.randint(1, 8)
            checked += 1
            assert index_bound(n1 * n2, d).theorem_a_bound == \
                index_bound(n1, d).theorem_a_bound * index_bound(n2, d).theorem_a_bound

    def test_coprime_flag_matches_definition(self):
        for n in range(1, 101):
            for d in range(1, 9):
                report = index_bound(n, d)
                assert report.corollary_b_applies == (gcd(n, factorial(d - 1)) == 1)

    def test_monotone_above_free_part(self):
        for n in range(2, 60):
            for d in range(2, 9):
                report = index_bound(n, d)
                assert report.theorem_a_bound >= n ** (d - 1)
                assert (report.theorem_a_bound == n ** (d - 1)) == \
                    report.corollary_b_applies

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            index_bound(0, 3)
        with pytest.raises(ValueError):
            index_bound(3, 0)


class TestKnownSharp:
    def test_d4_values(self):
        assert known_sharp_bound(4, 4).value == 64      # 4 | n branch
        assert known_sharp_bound(6, 4).value == 1296
        assert known_sharp_bound(2, 4).value == 2 * 8   # e_2(2) * 2^3
        assert known_sharp_bound(12, 4).value == 3 * 12 ** 3

    def test_d3_equals_general_bound(self):
        for n in range(1, 40):
            assert known_sharp_bound(n, 3).value == index_bound(n, 3).theorem_a_bound

    def test_low_dimensions(self):
        assert known_sharp_bound(7, 1).value == 1
        assert known_sharp_bound(7, 2).value == 7
        assert known_sharp_bound(2, 3).value == 8

    def test_absent_above_four(self):
        assert known_sharp_bound(6, 5) is None
        assert index_bound(6, 5).known_sharp is None


class TestComparison:
    def test_gu_improvement_at_four(self):
        c = index_bound(4, 4)
        assert (c.theorem_a_bound, c.known_sharp.value) == (128, 64)
        assert c.ratio == 2
        assert c.sharp_improves

    def test_agreement_when_coprime_to_six(self):
        c = index_bound(5, 4)
        assert (c.theorem_a_bound, c.known_sharp.value, c.ratio) == (125, 125, 1)
        assert not c.sharp_improves

    def test_d3_sharp(self):
        c = index_bound(3, 3)
        assert (c.theorem_a_bound, c.known_sharp.value) == (9, 9)

    def test_no_sharp_value(self):
        c = index_bound(6, 6)
        assert c.known_sharp is None and c.ratio is None and not c.sharp_improves


class TestJson:
    def test_payloads_list_every_field(self):
        eight = "realized by 8-dimensional examples"
        assert index_bound(6, 4).to_json_dict() == {
            "n": 6, "d": 4, "primes": [{"p": 2, "r": 1, "bound": "16"},
                                       {"p": 3, "r": 1, "bound": "81"}],
            "theorem_a": "1296", "corollary_b": False,
            "sharp": {"value": "1296", "source": eight}}
        assert index_bound(2 ** 10 * 3, 7).to_json_dict() == {
            "n": 3072, "d": 7, "primes": [{"p": 2, "r": 10, "bound": str(2 ** 64)},
                                          {"p": 3, "r": 1, "bound": "6561"}],
            "theorem_a": str(2 ** 64 * 6561), "corollary_b": False, "sharp": None}

    def test_big_integers_as_strings(self):
        payload = index_bound(2 ** 20, 8).to_json_dict()
        assert isinstance(payload["theorem_a"], str)
        assert int(payload["theorem_a"]) == index_bound(2 ** 20, 8).theorem_a_bound

    def test_prime_power_bound_converted_once(self, monkeypatch):
        # the bound of a prime power is its theorem_a: one conversion serves both
        real, calls = bounds.decimal_string, []

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(bounds, "decimal_string", counting)
        report = index_bound(2, 300000)
        payload = report.to_json_dict()
        assert calls == [report.theorem_a_bound]
        assert payload["primes"] == [{"p": 2, "r": 1, "bound": payload["theorem_a"]}]
        assert payload["theorem_a"] == real(report.theorem_a_bound)

    def test_ratio_serialization(self):
        c = index_bound(4, 4)
        assert str(c.ratio) == "2" and Fraction(str(c.ratio)) == c.ratio


class TestDecimalString:
    @pytest.fixture(autouse=True)
    def no_digit_limit(self):
        # str() refuses ints past 4300 digits unless the limit is lifted
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        old = get_limit() if get_limit else None
        if get_limit:
            sys.set_int_max_str_digits(0)
        yield
        if get_limit:
            sys.set_int_max_str_digits(old)

    def test_equals_str_on_both_sides_of_4300_digits(self):
        for x in [0, 1, -1, 9, 10, 2 ** 1024 - 1, 2 ** 1024, 2 ** 2048 + 1,
                  10 ** 4299, 10 ** 4300 - 1, 10 ** 4300, 10 ** 4300 + 1, -10 ** 4300,
                  2 ** 14284, 3 ** 9000, 10 ** 20000 + 7, 7 ** 100000]:
            assert decimal_string(x) == str(x)

    def test_equals_str_on_random_sizes(self):
        rng = random.Random(3)
        for bits in [rng.randint(1, 80000) for _ in range(60)] + [14280, 14290, 14300]:
            x = rng.getrandbits(bits) | (1 << (bits - 1))
            assert decimal_string(x) == str(x)

    def test_powers_kept_across_calls_and_grown_on_demand(self, monkeypatch):
        monkeypatch.setattr(bounds, "_POWERS", {})
        # the 4096-bit edge: str below it, the smallest table above it
        for x in [2 ** 4096 - 1, 2 ** 4096, 2 ** 4096 + 1, -(2 ** 4096) - 1, 2 ** 8192 - 1]:
            assert decimal_string(x) == str(x)
        held = dict(bounds._POWERS)
        assert sorted(held) == [0, 1, 2] and held[0] == 2 ** 1024
        x = 7 ** 30000  # 84,221 bits: needs powers past every one held
        assert decimal_string(x) == str(x)
        assert sorted(bounds._POWERS) == list(range(7))
        assert all(bounds._POWERS[k] is held[k] for k in held)  # kept, not rebuilt
        assert decimal_string(2 ** 8192 + 1) == str(2 ** 8192 + 1)  # the larger table
