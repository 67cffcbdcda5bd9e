"""Period-index arithmetic for topological Brauer classes.

For a Brauer class of period n on a 2d-dimensional finite CW complex, the
index divides

    n^(d-1) * prod_{p | n} p^(v_p((d-1)!)),

the product of the per-prime differential-order bounds p^(r + v_p(j)) over
j = 1..d-1.  ``index_bound`` evaluates this, reports the per-prime
breakdown, and attaches the best known sharp value in the low dimensions
where one is known (d <= 4); the report's ``ratio`` and ``sharp_improves``
compare the two.  Reports serialise with the bound under the key
"theorem_a" and the coprime-case flag under "corollary_b".
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction


def _primes_below(limit: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), sieve))


# factorize divides these out first; what is left has no factor below 1000
_SMALL_PRIMES = _primes_below(1000)
# Miller-Rabin with the first 13 primes as bases decides every n below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster 2015)
_BASES = _SMALL_PRIMES[:13]
_POWERS = {}  # decimal_string's {k: 2^(1024 * 2^k)}, exact Decimals, kept across calls
PRIME_CEILING = 3317044064679887385961981


class CeilingError(ValueError):
    """An integer at or above PRIME_CEILING, where is_prime is no longer exact."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < PRIME_CEILING.

    Raises CeilingError for n >= PRIME_CEILING rather than guess.
    """
    if n >= PRIME_CEILING:
        raise CeilingError(f"a {len(decimal_string(n))}-digit integer is not below "
                           f"{PRIME_CEILING}, the limit of exact primality testing")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < _BASES[-1] ** 2:  # no prime factor up to 41, so n is prime
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of n, an odd composite with no factor below 1000.

    Brent's cycle-finding variant of Pollard's rho (Brent 1980), taking
    gcds over batches of 128 steps of x -> x^2 + c; a batch that overshoots
    is replayed one step at a time, and a cycle with no proper factor
    moves on to the next c.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as ascending (prime, exponent) pairs.

    Trial division by the primes below 1000, then Pollard-Brent on what is
    left.  Raises CeilingError when the part left after trial division is
    not below PRIME_CEILING, where primality is no longer decided exactly.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    whole, out = n, []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            r = 0
            while n % p == 0:
                n //= p
                r += 1
            out.append((p, r))
    # n has no prime factor below 1000 now, so below 1000^2 it is 1 or prime
    if n < 1000 ** 2:
        if n > 1:
            out.append((n, 1))
        return out
    if n >= PRIME_CEILING:
        raise CeilingError(f"cannot factorise a {len(decimal_string(whole))}-digit integer: "
                           f"its {len(decimal_string(n))}-digit part without prime factors "
                           f"below 1000 is not below {PRIME_CEILING}")
    large = Counter()
    pending = [n]
    while pending:
        m = pending.pop()
        if is_prime(m):
            large[m] += 1
        else:
            f = _pollard_brent(m)
            pending += [f, m // f]
    return out + sorted(large.items())


def padic_valuation(p: int, m: int) -> int:
    """Largest e with p^e dividing m (m >= 1)."""
    if m < 1:
        raise ValueError("padic_valuation needs m >= 1")
    if p < 2:
        raise ValueError("p must be a prime")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def legendre_valuation(p: int, m: int) -> int:
    """v_p(m!) for a prime p (for p = 4 the sum below is 2 at m = 8, where
    4^3 divides 8!)."""
    if m < 0:
        raise ValueError("legendre_valuation needs m >= 0")
    if not is_prime(p):
        raise ValueError("p must be a prime")
    return _legendre_sum(p, m)


def _legendre_sum(p: int, m: int) -> int:
    """floor(m/p) + floor(m/p^2) + ..., v_p(m!) for a p already checked prime."""
    total, q = 0, p
    while q <= m:
        total, q = total + m // q, q * p
    return total


def _check_prime_power(p: int, r: int, max_degree: int) -> None:
    """Raise ValueError unless p is prime, r >= 1 and max_degree >= 0: the
    arguments of a model or a word listing for period p^r."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")


def differential_order_bound(p: int, r: int, j: int) -> int:
    """p^(r + v_p(j)): the order bound on the j-th odd differential.

    This is the torsion exponent of the p-primary part of the degree-2j
    homology of the universal example for period p^r, so it caps the order
    of the image of d_{2j+1} in the twisted K-theory spectral sequence.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if not is_prime(p):
        raise ValueError("p must be a prime")
    return p ** (r + padic_valuation(p, j))


def prime_power_index_bound(p: int, r: int, d: int) -> int:
    """Index bound for period p^r in dimension 2d: p^((d-1)r + v_p((d-1)!)).

    This is the product of the per-differential bounds
    ``differential_order_bound(p, r, j)`` over j = 1..d-1, in closed form.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if not is_prime(p):
        raise ValueError("p must be a prime")
    return _prime_power_bound(p, r, d)


def _prime_power_bound(p: int, r: int, d: int) -> int:
    """``prime_power_index_bound`` for a p already known prime and r, d >= 1."""
    return p ** ((d - 1) * r + _legendre_sum(p, d - 1))


def decimal_string(x: int) -> str:
    """``str(x)``, in sub-quadratic time for the bounds' millions of digits.

    Divide and conquer: x splits at 2^(1024 * 2^k) into halves that are
    converted recursively and recombined as exact ``Decimal``s, whose
    multiplication is sub-quadratic.  ``str`` and int division are both
    quadratic on this Python, so splitting at powers of ten would not help.
    """
    if x < 0:
        return "-" + decimal_string(-x)
    if not x >> 4096:  # at most 1234 digits: str is quick, and within its limit
        return str(x)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
    top = ((x.bit_length() - 1) >> 10).bit_length() - 1  # x < 2^(1024 * 2^(top + 1))
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        for k in range(len(_POWERS), top + 1):  # grown on demand; entry k depends on k alone
            _POWERS[k] = _POWERS[k - 1] * _POWERS[k - 1] if k else Decimal(2) ** 1024

        def convert(x, k):  # x < 2^(1024 * 2^(k + 1))
            if k < 0:
                return Decimal(x)
            high = x >> (1024 << k)
            return convert(high, k - 1) * _POWERS[k] + convert(x - (high << (1024 << k)), k - 1)
        return str(convert(x, top))


class SharpBound(NamedTuple):
    value: int
    source: str

    def to_json_dict(self) -> dict:
        return {"value": str(self.value), "source": self.source}


def known_sharp_bound(n: int, d: int) -> SharpBound | None:
    """Best possible index bound where one is known (d <= 4), else None.

    d=1 is trivial, d=2 is forced by period | index | bound, d=3 equals the
    general bound, 2n^2 for even n and n^2 for odd n (v_p(2!) is 1 for p = 2
    and 0 for odd p), and d=4 has the two-branch formula e_3(n)n^3 when 4 | n
    and e_2(n)e_3(n)n^3 otherwise, with e_p(n) = p if p | n else 1.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if d == 1:
        return SharpBound(1, "trivial bound")
    if d == 2:
        return SharpBound(n, "forced: period divides index divides period")
    if d == 3:
        return SharpBound(n ** 2 * (2 if n % 2 == 0 else 1),
                          "realized by 6-dimensional examples")
    if d == 4:
        e2 = 2 if n % 2 == 0 else 1
        e3 = 3 if n % 3 == 0 else 1
        value = e3 * n ** 3 if n % 4 == 0 else e2 * e3 * n ** 3
        return SharpBound(value, "realized by 8-dimensional examples")
    return None


class BoundReport(NamedTuple):
    """Per-prime breakdown of the index bound for period n in dimension 2d."""

    n: int
    d: int
    prime_breakdown: tuple[tuple[int, int, int], ...]  # (p, r, p^((d-1)r + v_p((d-1)!)))
    theorem_a_bound: int
    corollary_b_applies: bool
    known_sharp: SharpBound | None

    def to_json_dict(self) -> dict:
        theorem_a = decimal_string(self.theorem_a_bound)  # a prime power's one bound
        return {
            "n": self.n,
            "d": self.d,
            "primes": [
                {"p": p, "r": r, "bound": theorem_a if bound == self.theorem_a_bound
                 else decimal_string(bound)}
                for p, r, bound in self.prime_breakdown
            ],
            "theorem_a": theorem_a,
            "corollary_b": self.corollary_b_applies,
            "sharp": self.known_sharp.to_json_dict() if self.known_sharp else None,
        }

    @property
    def ratio(self) -> Fraction | None:
        """theorem_a / sharp, or None where no sharp value is known.

        >>> index_bound(4, 4).ratio
        Fraction(2, 1)
        """
        if self.known_sharp is None:
            return None
        from fractions import Fraction
        return Fraction(self.theorem_a_bound, self.known_sharp.value)

    @property
    def sharp_improves(self) -> bool:
        """Whether the sharp value is a proper divisor of theorem_a."""
        sharp, bound = self.known_sharp, self.theorem_a_bound
        return sharp is not None and sharp.value < bound and bound % sharp.value == 0


def index_bound(n: int, d: int) -> BoundReport:
    """Evaluate the index bound for period n in dimension 2d.

    >>> index_bound(6, 4).theorem_a_bound
    1296
    >>> index_bound(5, 4).corollary_b_applies
    True
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    breakdown = tuple(
        (p, r, _prime_power_bound(p, r, d)) for p, r in factorize(n))
    return BoundReport(
        n=n,
        d=d,
        prime_breakdown=breakdown,
        theorem_a_bound=prod(bound for _, _, bound in breakdown),
        # gcd(n, (d-1)!) == 1 exactly when every prime of n exceeds d-1
        corollary_b_applies=all(p > d - 1 for p, _, _ in breakdown),
        known_sharp=known_sharp_bound(n, d),
    )
