"""Elementary dg complexes and the tensor models for K(Z/n, 2) homology.

Every elementary complex is an exterior algebra E on an odd generator
tensored with a divided power algebra P on an even one, twisted by an
integer h >= 1 through d(y) = h*x (Cartan, *Seminaire H. Cartan* 1954/55).
Two kinds occur:

    E(x, 2q-1) ox P(y, 2q)   homology Z/h on x*gamma_k(y), degree 2q-1+2qk
    P(x, 2q)   ox E(y, 2q+1) homology Z/hk on gamma_k(x), degree 2qk

For a prime power p^r the model complex is the tensor product of one
P(2) ox E(3) factor twisted by h = p^r with one E(1+2p^(k+1)) ox P(2+2p^(k+1))
factor twisted by h = p for each k >= 0; its homology surjects onto the
p-primary homology of K(Z/n, 2), and its torsion exponent in degree 2k is
exactly p^r * k.  Its closed-form homology is read off one mod-p series,
by the Kunneth formula over F_p and the universal coefficient theorem.
The model for composite order is the product of all the prime-power
models' factors; its closed-form homology is read off one such series per
prime q and level e, which counts the summands of order divisible by q^e.
Each series is one int of fixed-width slots (Kronecker substitution,
:mod:`periodindex.packing`), multiplied and divided by shifts and masks
and unpacked once as counts (``_torsion_counts``); the closed forms import
``packing``, never ``snf``.

Closed-form homology here is independently checkable against the
Smith-normal-form homology in :mod:`periodindex.snf` by one oracle route:
``realize_chain_complex`` for one elementary complex, and the models'
``primary_model_chain_complex`` and ``model_chain_complex``.  It reads
each factor as the connected components of its boundary graph (one or two
cells each, ``_components``) and, as ox distributes over +, folds the
factors, q descending, into a ``DirectSum`` of translated shapes.  The
fold keeps one series per shape, an int whose slot b holds the shape's
multiplicity at base degree b, and moves whole series by shifts and masks.
Its one product is a shape times an edge e1 -> h*e0, the mapping cone of h
on the shape (``_cone``), whatever the shape's base: homology sees the sum
only up to isomorphism, and the cones of h and -h are isomorphic.  A cone
is untruncated, so no cap or model changes it: each is built once and
kept for the process, shared by every model of its prime.  The route uses
components, distributivity, translation and cones only: no Tor rule, no
closed form, no Kunneth product.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cache
from itertools import compress
from math import prod
from operator import add
from typing import TYPE_CHECKING

from .bounds import _check_prime_power, _primes_below, factorize
from .graded import GradedAbelianGroup, _chain
from .packing import _slot_width, _unpack

if TYPE_CHECKING:  # the oracle route imports snf when it runs; the closed forms never do
    from .snf import ChainComplex, DirectSum


class ComplexKind(Enum):
    """EP is E(x, 2q-1) ox P(y, 2q) and PE is P(x, 2q) ox E(y, 2q+1), each with d(y) = h*x."""

    EP_SECOND = "EP"
    PE_SECOND = "PE"


class ElementaryComplex(namedtuple("ElementaryComplex", "kind q h")):
    """One elementary complex: the twisted pair ``kind`` on q, its twist ``h`` >= 1."""

    __slots__ = ()

    def __new__(cls, kind: ComplexKind, q: int, h: int | None = None):
        if q < 1:
            raise ValueError("q must be >= 1")
        if h is None or h < 1:
            raise ValueError(f"{kind.value} needs a twist h >= 1")
        return tuple.__new__(cls, (kind, q, h))

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace


def closed_form_homology(c: ElementaryComplex, max_degree: int) -> GradedAbelianGroup:
    """Homology of an elementary complex, truncated at ``max_degree``.

    >>> h = closed_form_homology(ElementaryComplex(ComplexKind.PE_SECOND, 1, 2), 8)
    >>> [h.describe(d) for d in (2, 4, 6, 8)]
    ['Z/2', 'Z/4', 'Z/6', 'Z/8']
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    q, h = c.q, c.h
    if c.kind is ComplexKind.EP_SECOND:  # Z/h in degree 2q-1+2qk
        orders = ((h, d) for d in range(2 * q - 1, max_degree + 1, 2 * q))
    else:  # PE: Z/(h*k) in degree 2qk; k = 0 is the Z placed in degree 0 below
        orders = ((h * k, d) for k, d in enumerate(range(2 * q, max_degree + 1, 2 * q), start=1))
    parts = [(1, ())] + [(0, ())] * max_degree  # only the non-zero degrees are written
    for t, d in orders:
        if t > 1:
            parts[d] = (0, ((t, 1),))
    return GradedAbelianGroup(tuple(parts))


def primary_model(p: int, r: int, max_degree: int) -> tuple[ElementaryComplex, ...]:
    """The factors of the model for period p^r up to ``max_degree``.

    The leading factor is P(u, 2) ox E(u', 3) twisted by p^r.  The k-th
    remaining factor E ox P has generator degrees (1+2p^(k+1), 2+2p^(k+1))
    and twist p; it is kept exactly while its lowest positive-degree
    homology 1+2p^(k+1) fits under the cap, so dropping the rest is exact,
    not an approximation.
    """
    _check_prime_power(p, r, max_degree)
    factors = [ElementaryComplex(ComplexKind.PE_SECOND, q=1, h=p ** r)]
    k = 0
    while 1 + 2 * p ** (k + 1) <= max_degree:
        factors.append(ElementaryComplex(ComplexKind.EP_SECOND, q=1 + p ** (k + 1), h=p))
        k += 1
    return tuple(factors)


def primary_model_homology(p: int, r: int, max_degree: int) -> GradedAbelianGroup:
    """Homology of the p-primary model, read off its mod-p Poincare series.

    Each factor is Z in degree 0 plus torsion of order divisible by p, with
    mod-p series (1 + x^a) / (1 - x^(2q)), a = 2q + 1 for the leading P ox E
    and 2q - 1 for each E ox P, so ``_torsion_counts`` gives the model's
    summand counts.  Over Z, Z/x ox Z/y and Tor(Z/x, Z/y) are Z/gcd(x, y)
    and every twist but the leading p^r is p, so each summand is Z/p but the
    leading line Z/(p^r k) in degree 2k.  ``verify`` checks it against SNF
    homology.

    >>> primary_model_homology(2, 1, 12).parts[10:]
    ((0, ((2, 1), (10, 1))), (0, ((2, 3),)), (0, ((2, 2), (12, 1))))
    """
    factors = primary_model(p, r, max_degree)
    series = [(2 * f.q + (1 if f.kind is ComplexKind.PE_SECOND else -1), 2 * f.q)
              for f in factors]
    t, h = _torsion_counts(series, max_degree), factors[0].h
    parts = [(1, ())] * (max_degree + 1)
    parts[1::2] = [(0, ((p, c),) if c else ()) for c in t[1::2]]
    # the leading line is one of the c >= 1 summands; in degree 2 it is the only one
    parts[2::2] = [(0, ((p, c - 1), (h * k, 1)) if c > 1 else ((h * k, 1),))
                   for k, c in enumerate(t[2::2], start=1)]
    return GradedAbelianGroup(tuple(parts))


def _torsion_counts(series, max_degree: int) -> list[int]:
    """t_0, ..., t_max_degree: the torsion summands per degree of a product
    of factors, each Z in degree 0 plus summands of order divisible by q,
    given by their mod-q series (1 + x^a) / (1 - x^s) as (a, s) pairs, s even
    and a = s +- 1.  Over F_q the Kunneth formula has no Tor term, so the
    product's series b is their product, and b_d = [d = 0] + t_d + t_(d-1)
    (universal coefficients): t = (b - 1) / (1 + x).

    It is read off one packed series (``packing``), cut to slots
    0..max_degree after every shift.  Times 1 + x^a is one shift-add; over
    1 - x^s is the product (1 + x^s)(1 + x^2s)(1 + x^4s)... until the step
    passes the cap.  With b_0 set to 0, over 1 - x^2 the same way gives
    P_d, the sum of b_j over j <= d with j = d mod 2, and t = P - x P.  That
    subtraction borrows from no slot, as t_d = P_d - P_(d-1) >= 0: each
    factor is 1 + (1 + x) x^(s-1) / (1 - x^s) or 1 + (1 + x) x^s / (1 - x^s),
    so b - 1 is (1 + x) times a series with coefficients >= 0, which is t.

    The slots are ``_slot_width(N)`` wide, N the product over the factors of
    2(max_degree // s + 1).  Up to the cap a factor's series has at most
    that many monomials, x^(ks) and x^(a+ks) (a is odd, s even), each with
    coefficient 1, so at most N choices of one monomial per factor lie up to
    the cap, and N bounds the sum of b_j over j <= max_degree.  Every factor
    is 1 plus terms >= 0, so each partial product is at most b, coefficient
    by coefficient, and each step of a doubling at most the quotient it
    ends at; every P_d is a sub-sum of the b_j.  No slot ever exceeds N, so
    none carries.

    >>> _torsion_counts([(3, 2)], 6)   # P(2) ox E(3) mod q: one summand per even degree
    [0, 0, 1, 0, 1, 0, 1]
    """
    top = max_degree + 1
    width = _slot_width(prod(2 * (max_degree // s + 1) for _, s in series))
    bits = 8 * width
    cut = (1 << bits * top) - 1  # slots 0..max_degree
    b = 1
    for a, s in series:
        b += b << bits * a & cut
        while s <= max_degree:
            b += b << bits * s & cut
            s *= 2
    b -= 1
    s = 2
    while s <= max_degree:
        b += b << bits * s & cut
        s *= 2
    return _unpack(b - (b << bits & cut), width, top)


def model_homology(n: int, max_degree: int) -> GradedAbelianGroup:
    """Homology of the full model for order n = p_1^r_1 ... p_k^r_k.

    With one prime this is ``primary_model_homology``.  With more, fix a
    prime q and a level e >= 1 and send Z to Z, Z/m to Z/q if q^e | m and to
    0 otherwise: as v_q(gcd(x, y)) >= e exactly when both valuations are,
    this commutes with ox and Tor of cyclic groups.  So ``_torsion_counts``
    of the factors' images gives t_(q,e)(d), the summands in degree d of
    order divisible by q^e: a P ox E with twist h keeps Z/(hk) when
    q^max(0, e - v_q(h)) divides k, an E ox P all its Z/h or none.  Only the
    primes of n and those up to max_degree / 2 occur, levels that keep the
    same summands share one series, and the i-th largest invariant factor
    has q-exponent #{e : t_(q,e)(d) >= i}, which ``_chain`` reads off.

    >>> model_homology(6, 4).summands(4)
    (0, (2, 12))
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return _model_homology(factorize(n), max_degree)


def _model_homology(primes, max_degree: int) -> GradedAbelianGroup:
    """``model_homology`` of the order whose factorisation, [(p, r), ...], is
    ``primes``, for a caller that has factorised it already."""
    if len(primes) == 1:
        return primary_model_homology(*primes[0], max_degree)
    # each factor's twist is a power of its own prime: p^r for P ox E, p for E ox P
    model = [(p, r if f.kind is ComplexKind.PE_SECOND else 1, f.kind is ComplexKind.PE_SECOND,
              2 * f.q) for p, r in primes for f in primary_model(p, r, max_degree)]
    leading = [f for f in model if f[2]]  # all that keeps summands at a q not dividing n
    own = {p for p, _ in primes}
    levels = [[] for _ in range(max_degree + 1)]
    for q in own.union(_primes_below(max_degree // 2 + 1)):
        e = 1
        while True:
            series, runs = [], []
            for p, v, pe, s in model if q in own else leading:
                v = v if p == q else 0  # v_q(h)
                if e <= v:  # every summand kept, through level v
                    series.append((s + 1 if pe else s - 1, s))
                    runs.append(v + 1 - e)
                elif pe and (sm := s * q ** (e - v)) <= max_degree:  # Z/(hk), q^(e-v) | k
                    series.append((sm + 1, sm))
                    runs.append(1)
            if not series:
                break
            run = min(runs)
            t, power = _torsion_counts(series, max_degree), q ** run
            for d in compress(range(max_degree + 1), t):
                levels[d].append((t[d], power))
            e += run
    return GradedAbelianGroup(((1, ()), *((0, _chain(c)) for c in levels[1:])))


def _components(c: ElementaryComplex, top: int) -> list[tuple[int | None, int]]:
    """(boundary coefficient, base degree) of each connected component of
    the elementary complex ``c`` truncated at degree ``top``, by ascending
    base degree; the coefficient is None for a lone cell.

    Even and odd degrees hold different generators, so each degree has at
    most one cell.  Divided powers obey x * gamma_k(x) = (k+1) gamma_{k+1}(x),
    which turns d(y) = h*x into

        EP:  d(gamma_k(y)) = h * x gamma_{k-1}(y),  d(x gamma_k(y)) = 0
        PE:  d(y gamma_k(x)) = h(k+1) gamma_{k+1}(x),  d(gamma_k(x)) = 0

    so x gamma_k(y) (degree 2q-1+2qk) and gamma_k(x) (degree 2qk, k >= 1)
    each pair with the cell above them.  A pair cut by ``top`` leaves its
    lower cell alone:

    >>> _components(ElementaryComplex(ComplexKind.PE_SECOND, 1, 2), 6)
    [(None, 0), (2, 2), (4, 4), (None, 6)]

    Every complex the oracle builds from these, one factor's
    (``realize_chain_complex``) or a model's, is still checked: a component
    has at most two cells, so d o d = 0 holds by construction, and each
    ``_cone`` is a validated ``ChainComplex``.
    """
    q, h = c.q, c.h
    if c.kind is ComplexKind.EP_SECOND:
        pairs = [(h, n) for n in range(2 * q - 1, top + 1, 2 * q)]
    else:
        pairs = [(h * k, n) for k, n in enumerate(range(2 * q, top + 1, 2 * q), start=1)]
    return [(None, 0)] + [(a if n < top else None, n) for a, n in pairs]


def realize_chain_complex(c: ElementaryComplex, max_degree: int) -> DirectSum:
    """An elementary complex as the oracle builds every model: the one-factor
    ``_direct_sum``, truncated at ``max_degree`` + 1 to query homology to it."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return _direct_sum((c,), max_degree)


@cache
def _point() -> ChainComplex:  # Z in degree 0, the root of every shape
    from .snf import ChainComplex
    return ChainComplex((1,), {})


@cache
def _cone(a: ChainComplex, h: int) -> ChainComplex:
    """A ox (e1 -> h*e0), up to signs the mapping cone of h on A (Weibel, *An
    Introduction to Homological Algebra*, 1.5), complete one degree above A.

    In degree n the basis is a ox e0 for a in A_n, then a ox e1 for a in
    A_(n-1), and d(a ox e1) = da ox e1 + (-1)^|a| h a ox e0.  That sign
    makes d o d = 0; the sign of h does not matter, as negating every
    a ox e1 is an isomorphism from the cone of -h to the cone of h.
    """
    from .snf import ChainComplex
    dims, top = a.dims, a.max_degree
    boundaries = {}
    for n in range(1, top + 2):
        lower = a.columns(n - 1) if n > 1 else ({},) * dims[0]
        sign, below = (-1) ** (n - 1) * h, dims[n - 1]
        boundaries[n] = [*(a.columns(n) if n <= top else ()),
                         *({i: sign, **{below + r: x for r, x in da.items()}}
                           for i, da in enumerate(lower))]
    return ChainComplex([dims[0], *map(add, dims[1:], dims), dims[-1]], boundaries)


def _fold_order(factors) -> list[ElementaryComplex]:
    """The factors by q descending, ties kept in order: a factor's cells lie
    2q apart, so the sparsest fold first, in an order no cap changes."""
    return sorted(factors, key=lambda f: -f.q)


def _largest_dim(parts, top: int) -> int:
    """The largest coefficient, in degrees 0..``top``, of the product of the
    cell-count polynomials of factors given as their ``_components``: a
    lone cell in degree j is x^j, an edge x^j + x^(j+1).  The product is
    packed at the width of the product of the factors' cell counts, which
    no coefficient fills, so no slot carries."""
    width = _slot_width(prod(len(p) + sum(h is not None for h, _ in p) for p in parts))
    bits = 8 * width
    cut, edge = (1 << bits * (top + 1)) - 1, (1 << bits) + 1
    cells = 1
    for components in parts:
        cells = cells * sum((1 if h is None else edge) << bits * j for h, j in components) & cut
    return max(_unpack(cells, width, top + 1))


def _direct_sum(factors, max_degree: int) -> DirectSum:
    """The tensor product of the elementary ``factors``, in their order and
    truncated at ``max_degree`` + 1, as a sum of translated shapes.

    Each factor enters, never realised, as its ``_components`` under that
    cap, which leaves the product unchanged up to it.  Each summand takes
    one component from each factor: its shape is the product of the edges
    taken, as a lone cell only translates.  A shape A at base i times an
    edge e1 -> h*e0 is, with its Koszul sign, the cone of (-1)^i h on A,
    which is isomorphic to ``_cone(A, h)``: every edge gives that one cone,
    at any base.  ``_cone`` keeps each for the process, keyed by identity,
    which is canonical as every shape descends from ``_point()``.

    The summands are kept as {shape: series}, slot b of the series its
    multiplicity at base b (``snf.DirectSum``), so the fold works once per
    shape and component: it shifts the series by the component's base and
    masks it to the cap's slots.

    The product of the factors' cell-count polynomials, x^j for each cell in
    degree j, has the sum's dims as its coefficients up to the cap.  Every
    factor has a cell in degree 0, so the product of any of them is at most
    that one, coefficient by coefficient, and its largest coefficient up to
    the cap bounds every multiplicity of the fold and every dim, rank and
    torsion count of the sum (``_largest_dim``): slots of its width never
    carry.
    """
    from .snf import DirectSum
    top = max_degree + 1
    parts = [_components(f, top) for f in factors]
    width = _slot_width(_largest_dim(parts, top))
    bits = 8 * width
    cut = (1 << bits * (top + 1)) - 1  # slots 0..top
    series = {_point(): 1}
    for components in parts:
        folded = {}
        for a, s in series.items():
            for h, j in components:
                moved = s << bits * j & cut
                if not moved:  # every base past the cap, here and at larger j
                    break
                shape = a if h is None else _cone(a, h)
                folded[shape] = folded.get(shape, 0) + moved
        series = folded
    return DirectSum.from_series(series, width, top)


def primary_model_chain_complex(p: int, r: int, max_degree: int) -> DirectSum:
    """The p-primary model as a sum of shapes, truncated at ``max_degree`` + 1,
    folded in ``_fold_order``: as no cap changes that order, below its cap
    the model is the sub-sum of the model at any larger cap."""
    return _direct_sum(_fold_order(primary_model(p, r, max_degree)), max_degree)


def model_chain_complex(n: int, max_degree: int) -> DirectSum:
    """The full model for order n as a sum of shapes, truncated at
    ``max_degree`` + 1: the prime-power models' factors, all folded in
    ``_fold_order`` (the oracle route to ``model_homology``)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    factors = (f for p, r in factorize(n) for f in primary_model(p, r, max_degree))
    return _direct_sum(_fold_order(factors), max_degree)
