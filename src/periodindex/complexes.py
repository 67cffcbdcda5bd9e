"""Elementary dg complexes and the tensor models for K(Z/n, 2) homology.

Four kinds of elementary complex occur.  First type, with zero
differential:

    E(x, 2q-1)   exterior algebra on an odd generator
    P(x, 2q)     divided power algebra on an even generator

Second type, twisted by an integer h >= 1 through d(y) = h*x:

    E(x, 2q-1) ox P(y, 2q)   homology Z/h on x*gamma_k(y), degree 2q-1+2qk
    P(x, 2q)   ox E(y, 2q+1) homology Z/hk on gamma_k(x), degree 2qk

For a prime power p^r the model complex is the tensor product of one
P(2) ox E(3) factor twisted by h = p^r with one E(1+2p^(k+1)) ox P(2+2p^(k+1))
factor twisted by h = p for each k >= 0; its homology surjects onto the
p-primary homology of K(Z/n, 2), and its torsion exponent in degree 2k is
exactly p^r * k.  Models for composite order are Kunneth products of the
prime-power ones.

Closed-form homology here is independently checkable: every elementary
complex can be realised as an explicit based chain complex and handed to
the Smith-normal-form homology in :mod:`periodindex.snf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bounds import factorize, is_prime, padic_valuation
from .graded import GradedAbelianGroup, kunneth
from .snf import ChainComplex


class ComplexKind(Enum):
    EXTERIOR_FIRST = "E"
    DIVIDED_POWER_FIRST = "P"
    EP_SECOND = "EP"
    PE_SECOND = "PE"


_SECOND = (ComplexKind.EP_SECOND, ComplexKind.PE_SECOND)


@dataclass(frozen=True)
class ElementaryComplex:
    """One elementary complex; ``h`` is the twist of the second-type kinds."""

    kind: ComplexKind
    q: int
    h: int | None = None
    label: str = ""

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.kind in _SECOND:
            if self.h is None or self.h < 1:
                raise ValueError(f"{self.kind.value} needs a twist h >= 1")
        elif self.h is not None:
            raise ValueError("first-type complexes carry no twist")

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        q = self.q
        if self.kind is ComplexKind.EXTERIOR_FIRST:
            return (2 * q - 1,)
        if self.kind is ComplexKind.DIVIDED_POWER_FIRST:
            return (2 * q,)
        if self.kind is ComplexKind.EP_SECOND:
            return (2 * q - 1, 2 * q)
        return (2 * q, 2 * q + 1)


def closed_form_homology(c: ElementaryComplex, max_degree: int) -> GradedAbelianGroup:
    """Homology of an elementary complex, truncated at ``max_degree``.

    >>> h = closed_form_homology(ElementaryComplex(ComplexKind.PE_SECOND, 1, 2), 8)
    >>> [h.describe(d) for d in (2, 4, 6, 8)]
    ['Z/2', 'Z/4', 'Z/6', 'Z/8']
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    q = c.q
    summands: dict[int, list[int]] = {0: [0]}
    if c.kind is ComplexKind.EXTERIOR_FIRST:
        if 2 * q - 1 <= max_degree:
            summands[2 * q - 1] = [0]
    elif c.kind is ComplexKind.DIVIDED_POWER_FIRST:
        k = 1
        while 2 * q * k <= max_degree:
            summands[2 * q * k] = [0]
            k += 1
    elif c.kind is ComplexKind.EP_SECOND:
        k = 0
        while 2 * q - 1 + 2 * q * k <= max_degree:
            summands[2 * q - 1 + 2 * q * k] = [c.h]
            k += 1
    else:  # PE: Z/(h*k) in degree 2qk; k = 0 is the Z already placed in degree 0
        k = 1
        while 2 * q * k <= max_degree:
            summands[2 * q * k] = [c.h * k]
            k += 1
    return GradedAbelianGroup.from_summands(summands, max_degree)


def primary_model(p: int, r: int, max_degree: int) -> tuple[ElementaryComplex, ...]:
    """The factors of the model for period p^r up to ``max_degree``.

    The leading factor is P(u, 2) ox E(u', 3) twisted by p^r.  The k-th
    remaining factor E ox P has generator degrees (1+2p^(k+1), 2+2p^(k+1))
    and twist p; it is kept exactly while its lowest positive-degree
    homology 1+2p^(k+1) fits under the cap, so dropping the rest is exact,
    not an approximation.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    factors = [ElementaryComplex(
        ComplexKind.PE_SECOND, q=1, h=p ** r,
        label=f"P(σ²u, 2)⊗E(σψ_{p ** r}u, 3)")]
    k = 0
    while 1 + 2 * p ** (k + 1) <= max_degree:
        gammas = f"γ_{p}" * k
        e_word = f"σ{gammas}γ_{p}φ_{p}v"
        p_word = f"φ_{p}{gammas}φ_{p}v"
        factors.append(ElementaryComplex(
            ComplexKind.EP_SECOND, q=1 + p ** (k + 1), h=p,
            label=f"E({e_word}, {1 + 2 * p ** (k + 1)})⊗P({p_word}, {2 + 2 * p ** (k + 1)})"))
        k += 1
    return tuple(factors)


def primary_model_homology(p: int, r: int, max_degree: int) -> GradedAbelianGroup:
    """Homology of the p-primary model, via Kunneth over the factor list."""
    first, *rest = primary_model(p, r, max_degree)
    result = closed_form_homology(first, max_degree)
    for factor in rest:
        result = kunneth(result, closed_form_homology(factor, max_degree), max_degree)
    return result


def model_homology(n: int, max_degree: int) -> GradedAbelianGroup:
    """Homology of the full model for order n = p_1^r_1 ... p_k^r_k.

    >>> model_homology(6, 2).summands(2)
    (0, (2, 3))
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    (p, r), *rest = factorize(n)
    result = primary_model_homology(p, r, max_degree)
    for p, r in rest:
        result = kunneth(result, primary_model_homology(p, r, max_degree), max_degree)
    return result


def exponent_bound(p: int, r: int, k: int) -> int:
    """p^(r + v_p(k)): the p-part of the degree-2k torsion exponent.

    The full exponent in degree 2k of the p-primary model is p^r * k, all
    of it contributed by the leading factor; this is its p-part.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return p ** (r + padic_valuation(p, k))


def _gamma_basis_label(gen: str, k: int) -> str:
    if k == 0:
        return "1"
    if k == 1:
        return gen
    return f"γ{k}({gen})"


def realize_chain_complex(c: ElementaryComplex, max_degree: int) -> ChainComplex:
    """Realise an elementary complex as a based chain complex.

    Bases are truncated one degree above ``max_degree`` so that every
    boundary into degree <= max_degree is complete and homology can be
    queried up to the cap.  Divided powers obey x * gamma_k(x) =
    (k+1) gamma_{k+1}(x), which turns d(y) = h*x into

        EP:  d(gamma_k(y)) = h * x gamma_{k-1}(y),  d(x gamma_k(y)) = 0
        PE:  d(y gamma_k(x)) = h(k+1) gamma_{k+1}(x),  d(gamma_k(x)) = 0

    Even and odd degrees hold different generators, so every degree has at
    most one basis element and each boundary is at most the single entry
    ``{0: coefficient}`` in its single column.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    top = max_degree + 1
    q = c.q
    labels: list[list[str]] = [[] for _ in range(top + 1)]
    boundaries: dict[int, list[dict[int, int]]] = {}

    if c.kind is ComplexKind.EXTERIOR_FIRST:
        labels[0].append("1")
        if 2 * q - 1 <= top:
            labels[2 * q - 1].append("x")
    elif c.kind is ComplexKind.DIVIDED_POWER_FIRST:
        k = 0
        while 2 * q * k <= top:
            labels[2 * q * k].append(_gamma_basis_label("x", k))
            k += 1
    elif c.kind is ComplexKind.EP_SECOND:
        # x has degree 2q-1, gamma_k(y) degree 2qk
        k = 0
        while 2 * q * k <= top:
            labels[2 * q * k].append(_gamma_basis_label("y", k))
            if k >= 1:
                boundaries[2 * q * k] = [{0: c.h}]
            k += 1
        k = 0
        while 2 * q - 1 + 2 * q * k <= top:
            lbl = "x" if k == 0 else f"x·{_gamma_basis_label('y', k)}"
            labels[2 * q - 1 + 2 * q * k].append(lbl)
            k += 1
    else:  # PE: gamma_k(x) degree 2qk, y gamma_k(x) degree 2q+1+2qk
        k = 0
        while 2 * q * k <= top:
            labels[2 * q * k].append(_gamma_basis_label("x", k))
            k += 1
        k = 0
        while 2 * q + 1 + 2 * q * k <= top:
            lbl = "y" if k == 0 else f"y·{_gamma_basis_label('x', k)}"
            labels[2 * q + 1 + 2 * q * k].append(lbl)
            boundaries[2 * q + 1 + 2 * q * k] = [{0: c.h * (k + 1)}]
            k += 1
    return ChainComplex(labels, boundaries)


def tensor_chain_complex(c1: ChainComplex, c2: ChainComplex,
                         max_degree: int) -> ChainComplex:
    """Tensor product of based complexes, truncated at ``max_degree`` + 1.

    The differential follows the Koszul convention d(a ox b) = da ox b +
    (-1)^|a| a ox db.  Both inputs must be complete up to max_degree + 1
    (anything they are missing above their own caps is treated as zero,
    which is the caller's responsibility).  The product is a
    ``ChainComplex`` and so has d o d = 0 checked when it is built.

    In degree d the basis runs over i = 0..d, then a in C1_i, then b in
    C2_(d-i), so a ox b sits at offset[d][i] + a * dim C2_(d-i) + b.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    top = max_degree + 1

    dim1, dim2 = ([len(b) for b in c.basis_labels[:top + 1]] + [0] * (top - c.max_degree)
                  for c in (c1, c2))
    offsets: list[list[int]] = []
    labels: list[list[str]] = []
    for d in range(top + 1):
        start, lbls = [], []
        for i in range(d + 1):
            start.append(len(lbls))
            if dim1[i] and dim2[d - i]:
                lbls.extend(f"{la}⊗{lb}" for la in c1.basis_labels[i]
                            for lb in c2.basis_labels[d - i])
        offsets.append(start)
        labels.append(lbls)

    boundaries: dict[int, list[dict[int, int]]] = {}
    for d in range(1, top + 1):
        columns = []
        below = offsets[d - 1]
        for i in range(d + 1):
            j = d - i
            n1, n2 = dim1[i], dim2[j]
            if not (n1 and n2):
                continue
            da = c1.columns(i) if i >= 1 else None
            db = c2.columns(j) if j >= 1 else None
            sign = -1 if i % 2 else 1
            below_n2 = dim2[j - 1] if j >= 1 else 0
            for a in range(n1):
                for b in range(n2):
                    col = {}
                    if da is not None:  # da ox b, in block (i-1, j)
                        base = below[i - 1] + b
                        for r, coeff in da[a].items():
                            col[base + r * n2] = coeff
                    if db is not None:  # (-1)^i a ox db, in block (i, j-1)
                        base = below[i] + a * below_n2
                        for r, coeff in db[b].items():
                            col[base + r] = sign * coeff
                    columns.append(col)
        boundaries[d] = columns
    return ChainComplex(labels, boundaries)


def primary_model_chain_complex(p: int, r: int, max_degree: int) -> ChainComplex:
    """The p-primary model as one based chain complex (the oracle route)."""
    first, *rest = primary_model(p, r, max_degree)
    result = realize_chain_complex(first, max_degree)
    for factor in rest:
        result = tensor_chain_complex(
            result, realize_chain_complex(factor, max_degree), max_degree)
    return result


def model_chain_complex(n: int, max_degree: int) -> ChainComplex:
    """The full model for order n as one based chain complex: the tensor
    product of the prime-power ones (the oracle route to ``model_homology``)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    (p, r), *rest = factorize(n)
    result = primary_model_chain_complex(p, r, max_degree)
    for p, r in rest:
        result = tensor_chain_complex(
            result, primary_model_chain_complex(p, r, max_degree), max_degree)
    return result
