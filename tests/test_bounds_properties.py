"""Property tests: Miller-Rabin and Pollard-Brent factorisation against
trial division and a sieve, with sympy as an optional third opinion, and
the valuations and per-prime bounds on any small integers."""

from math import gcd, isqrt, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from periodindex.bounds import (differential_order_bound, factorize, index_bound, is_prime,
                                legendre_valuation, padic_valuation, prime_power_index_bound)

SETTINGS = settings(max_examples=100, deadline=None, database=None)


def trial_division(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            r = 0
            while n % p == 0:
                n //= p
                r += 1
            out.append((p, r))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def next_prime(n):
    while trial_division(n) != [(n, 1)]:
        n += 1
    return n


def check_factorisation(n, factors):
    assert prod(p ** e for p, e in factors) == n
    assert all(is_prime(p) and e >= 1 for p, e in factors)
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_is_prime_matches_sieve():
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [is_prime(n) for n in range(-3, limit)] == [False] * 3 + [bool(b) for b in sieve]


@SETTINGS
@given(st.integers(1, 10 ** 7))
def test_factorize_matches_trial_division(n):
    factors = factorize(n)
    check_factorisation(n, factors)
    assert factors == trial_division(n)


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(10 ** 8, 10 ** 9), st.integers(10 ** 8, 10 ** 9))
def test_factorize_splits_two_large_primes(a, b):
    p, q = next_prime(a), next_prime(b)
    factors = factorize(p * q)
    check_factorisation(p * q, factors)
    assert factors == ([(p, 2)] if p == q else sorted([(p, 1), (q, 1)]))


@SETTINGS
@given(st.integers(0, 2 ** 64))
def test_is_prime_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert is_prime(n) == sympy.isprime(n)
    assert is_prime(sympy.nextprime(n))


@SETTINGS
@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_index_bound_multiplicative_over_coprime_periods(n1, n2):
    assume(gcd(n1, n2) == 1)
    for d in range(1, 25):
        assert index_bound(n1 * n2, d).theorem_a_bound == \
            index_bound(n1, d).theorem_a_bound * index_bound(n2, d).theorem_a_bound


ARITHMETIC = {padic_valuation: 2, legendre_valuation: 2, differential_order_bound: 3,
              prime_power_index_bound: 3}


@SETTINGS
@given(st.sampled_from(list(ARITHMETIC)), st.lists(st.integers(-3, 40), min_size=3, max_size=3))
@example(legendre_valuation, [0, 5, 0])
@example(legendre_valuation, [1, 5, 0])
@example(prime_power_index_bound, [1, 1, 3])
@example(differential_order_bound, [2, -1, 1])
def test_arithmetic_answers_an_int_or_refuses_in_one_line(f, args):
    try:
        value = f(*args[:ARITHMETIC[f]])
    except ValueError as err:
        assert str(err) and "\n" not in str(err)
    else:
        assert type(value) is int
