"""Word calculus indexing the torsion of H_*(K(Z/n, 2)).

Words are built from four symbols: the suspension sigma, one divided-power
symbol gamma_p and one transpotence symbol phi_p per prime, and psi_{p^f},
which can only ever stand last.  Degree and height are the two gradings
the homology recipe reads off a word:

    deg(empty)     = 0            height counts the sigma, phi and psi
    deg(sigma a)   = 1 + deg(a)   letters; gamma is height-free.
    deg(gamma_p a) = p * deg(a)
    deg(phi_p a)   = 2 + p * deg(a)
    deg(psi_{p^f}) = 2

A word on sigma/gamma_p/phi_p is admissible when it has a first and a last
letter (so at least two letters), both sigma or phi_p, and every gamma_p or
phi_p letter has an even number of sigma letters strictly to its right.
The shortest admissible word is sigma^2, of degree 2.  ``enumerate_words``
lists the admissible words together with the auxiliary family
sigma^(h-1) psi, which is what the elementary-complex model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .bounds import is_prime


class SymbolKind(IntEnum):
    # the integer values fix the enumeration sort order
    SIGMA = 0
    GAMMA = 1
    PHI = 2
    PSI = 3


@dataclass(frozen=True)
class Symbol:
    kind: SymbolKind
    prime: int | None = None
    psi_exponent: int | None = None

    def __post_init__(self):
        if self.kind is SymbolKind.SIGMA:
            if self.prime is not None or self.psi_exponent is not None:
                raise ValueError("sigma carries no prime or exponent")
            return
        if self.prime is None or not is_prime(self.prime):
            raise ValueError(f"{self.kind.name} needs a prime, got {self.prime}")
        if self.kind is SymbolKind.PSI:
            if self.psi_exponent is None or self.psi_exponent < 1:
                raise ValueError("psi needs an exponent f >= 1")
        elif self.psi_exponent is not None:
            raise ValueError("only psi carries an exponent")


def sigma() -> Symbol:
    return Symbol(SymbolKind.SIGMA)


def gamma(p: int) -> Symbol:
    return Symbol(SymbolKind.GAMMA, prime=p)


def phi(p: int) -> Symbol:
    return Symbol(SymbolKind.PHI, prime=p)


def psi(p: int, f: int) -> Symbol:
    """psi indexed by the prime power p^f."""
    return Symbol(SymbolKind.PSI, prime=p, psi_exponent=f)


@dataclass(frozen=True)
class Word:
    """Immutable sequence of symbols over a single prime; psi only last."""

    symbols: tuple[Symbol, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        primes = {s.prime for s in self.symbols if s.prime is not None}
        if len(primes) > 1:
            raise ValueError(f"word mixes primes {sorted(primes)}")
        for s in self.symbols[:-1]:
            if s.kind is SymbolKind.PSI:
                raise ValueError("psi may only appear as the last symbol")

    @property
    def prime(self) -> int | None:
        """The single prime the non-sigma symbols share (None if all sigma)."""
        for s in self.symbols:
            if s.prime is not None:
                return s.prime
        return None

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __str__(self):
        return format_word(self)


def degree(word: Word) -> int:
    """Recursively defined degree; total on valid words, empty word -> 0."""
    d = 0
    for s in reversed(word.symbols):
        if s.kind is SymbolKind.SIGMA:
            d += 1
        elif s.kind is SymbolKind.GAMMA:
            d *= s.prime
        elif s.kind is SymbolKind.PHI:
            d = 2 + s.prime * d
        else:  # psi is last, so it is processed first here, on degree 0
            d = 2
    return d


def height(word: Word) -> int:
    """Number of sigma, phi and psi letters."""
    return sum(1 for s in word.symbols if s.kind is not SymbolKind.GAMMA)


def is_admissible(word: Word, p: int) -> bool:
    """Admissibility over the prime p.

    Raises ValueError for words containing psi (those belong to the
    auxiliary family, not the admissible one) and for words over a
    different prime.  The sigma-parity condition counts the sigma letters
    strictly to the right of each gamma/phi letter.  Needing both a first
    and a last letter rules out one-letter words, so every admissible word
    has height >= 2 and degree >= 2.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if any(s.kind is SymbolKind.PSI for s in word.symbols):
        raise ValueError("admissibility is undefined for psi words")
    if word.prime not in (None, p):
        raise ValueError(f"word over prime {word.prime} queried at {p}")
    if len(word.symbols) < 2:
        return False
    ends = (SymbolKind.SIGMA, SymbolKind.PHI)
    if word.symbols[0].kind not in ends or word.symbols[-1].kind not in ends:
        return False
    sigmas_right = 0
    for s in reversed(word.symbols):
        if s.kind is SymbolKind.SIGMA:
            sigmas_right += 1
        elif sigmas_right % 2:
            return False
    return True


def enumerate_words(p: int, r: int, max_degree: int) -> list[tuple[Word, int, int]]:
    """All admissible p-words of degree <= max_degree, plus the auxiliary
    words sigma^(h-1) psi_{p^r} (height h, degree h + 1).

    Returns (word, degree, height) triples sorted by degree, then height,
    then the symbol sequence with sigma < gamma < phi < psi.

    >>> [str(w) for w, _, h in enumerate_words(2, 1, 3) if h == 2]
    ['σσ', 'σφ_2', 'σψ_2']
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")

    # Symbols are frozen, so one instance of each serves every word.
    s, g, f = sigma(), gamma(p), phi(p)
    found: list[tuple[Word, int, int]] = []

    def record(symbols):
        w = Word(tuple(symbols))
        found.append((w, degree(w), height(w)))

    def grow(suffix, deg, sigma_count):
        # suffix already satisfies the parity and last-letter conditions;
        # prepends never change either, so pruning here is exact.
        if len(suffix) >= 2 and suffix[0].kind is not SymbolKind.GAMMA:
            record(suffix)
        nxt = 1 + deg
        if nxt <= max_degree:
            grow([s] + suffix, nxt, sigma_count + 1)
        if sigma_count % 2 == 0:
            nxt = p * deg
            if nxt <= max_degree:
                grow([g] + suffix, nxt, sigma_count)
            nxt = 2 + p * deg
            if nxt <= max_degree:
                grow([f] + suffix, nxt, sigma_count)

    if max_degree >= 1:
        grow([s], 1, 1)
    if max_degree >= 2:
        grow([f], 2, 0)

    # auxiliary family: sigma^(h-1) psi_{p^r} has degree h + 1
    last = psi(p, r)
    h = 1
    while h + 1 <= max_degree:
        record([s] * (h - 1) + [last])
        h += 1

    def sort_key(item):
        w, deg, ht = item
        return (deg, ht, tuple(int(s.kind) for s in w.symbols))

    found.sort(key=sort_key)
    return found


_UNICODE = {SymbolKind.SIGMA: "σ", SymbolKind.GAMMA: "γ",
            SymbolKind.PHI: "φ", SymbolKind.PSI: "ψ"}
_ASCII = {SymbolKind.SIGMA: "s", SymbolKind.GAMMA: "g",
          SymbolKind.PHI: "f", SymbolKind.PSI: "y"}


def format_word(word: Word, ascii_symbols: bool = False) -> str:
    """Render a word, e.g. σγ_3φ_3; with ascii_symbols: sg_3f_3."""
    glyphs = _ASCII if ascii_symbols else _UNICODE
    if not word.symbols:
        return "(empty)"
    parts = []
    for s in word.symbols:
        g = glyphs[s.kind]
        if s.kind in (SymbolKind.GAMMA, SymbolKind.PHI):
            parts.append(f"{g}_{s.prime}")
        elif s.kind is SymbolKind.PSI:
            parts.append(f"{g}_{s.prime ** s.psi_exponent}")
        else:
            parts.append(g)
    return "".join(parts)
