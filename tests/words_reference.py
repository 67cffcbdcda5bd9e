"""The word calculus as checked symbols and words: the definition the
package's kind-digit keys (``periodindex.words``) must meet.

A ``Symbol`` is one letter, sigma, gamma_p, phi_p or psi_{p^f}, checked and
spelled when it is built; a ``Word`` is a tuple of symbols over one prime,
psi only last.  ``degree``, ``height`` and ``is_admissible`` state the
gradings and the admissibility condition letter by letter, and
``reference_words`` enumerates the admissible words and the auxiliary
family sigma^(h-1) psi_{p^r} by recursion over suffixes, sorted as the
package sorts its rows.  The psi digits come from ``decimal_string(p **
f)``, not from the package's ``Decimal`` power.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum
from operator import attrgetter

from periodindex.bounds import decimal_string, is_prime


class SymbolKind(IntEnum):
    # the integer values are the key digits and fix the sort order
    SIGMA = 0
    GAMMA = 1
    PHI = 2
    PSI = 3


_UNICODE, _ASCII = "σγφψ", "sgfy"  # indexed by kind


class Symbol(namedtuple("Symbol", "kind prime psi_exponent text ascii_text")):
    """One letter of a word.  ``text`` and ``ascii_text`` are its rendering
    (e.g. γ_3 and g_3), worked out from the other fields when it is built."""

    __slots__ = ()

    def __new__(cls, kind: SymbolKind, prime: int | None = None, psi_exponent: int | None = None):
        if kind is SymbolKind.SIGMA:
            if prime is not None or psi_exponent is not None:
                raise ValueError("sigma carries no prime or exponent")
            suffix = ""
        elif prime is None or not is_prime(prime):
            raise ValueError(f"{kind.name} needs a prime, got {prime}")
        elif kind is SymbolKind.PSI:
            if psi_exponent is None or psi_exponent < 1:
                raise ValueError("psi needs an exponent f >= 1")
            suffix = "_" + decimal_string(prime ** psi_exponent)
        elif psi_exponent is not None:
            raise ValueError("only psi carries an exponent")
        else:
            suffix = f"_{prime}"
        return tuple.__new__(cls, (kind, prime, psi_exponent,
                                   _UNICODE[kind] + suffix, _ASCII[kind] + suffix))

    def __getnewargs__(self):
        return self[:3]

    @classmethod
    def _make(cls, iterable) -> "Symbol":  # _replace calls this too
        fields = tuple(iterable)
        symbol = cls(*fields[:3])
        if symbol != fields:
            raise ValueError(f"the text of {symbol[:3]} is {symbol[3:]}, not {fields[3:]}")
        return symbol


def sigma() -> Symbol:
    return Symbol(SymbolKind.SIGMA)


def gamma(p: int) -> Symbol:
    return Symbol(SymbolKind.GAMMA, prime=p)


def phi(p: int) -> Symbol:
    return Symbol(SymbolKind.PHI, prime=p)


def psi(p: int, f: int) -> Symbol:
    """psi indexed by the prime power p^f."""
    return Symbol(SymbolKind.PSI, prime=p, psi_exponent=f)


_KIND, _PRIME = attrgetter("kind"), attrgetter("prime")


class Word:
    """Immutable sequence of symbols over a single prime; psi only last."""

    __slots__ = ("_symbols",)
    symbols = property(attrgetter("_symbols"))

    def __init__(self, symbols: tuple[Symbol, ...]):
        symbols = tuple(symbols)
        primes = set(map(_PRIME, symbols))
        primes.discard(None)
        if len(primes) > 1:
            raise ValueError(f"word mixes primes {sorted(primes)}")
        if SymbolKind.PSI in map(_KIND, symbols[:-1]):
            raise ValueError("psi may only appear as the last symbol")
        self._symbols = symbols

    def __eq__(self, other):
        return self.symbols == other.symbols if isinstance(other, Word) else NotImplemented

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Word(symbols={self.symbols!r})"

    @property
    def prime(self) -> int | None:
        """The single prime the non-sigma symbols share (None if all sigma)."""
        return next((s.prime for s in self.symbols if s.prime is not None), None)

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __str__(self):
        return spell(self)


def spell(word: Word, ascii_symbols: bool = False) -> str:
    """The word's symbol texts, e.g. σγ_3φ_3; with ascii_symbols: sg_3f_3."""
    if not word.symbols:
        return "(empty)"
    return "".join(s.ascii_text if ascii_symbols else s.text for s in word.symbols)


def key_of(word: Word) -> str:
    """The word in kind digits, as ``periodindex.words.words_by_degree``
    spells it."""
    return "".join(str(int(s.kind)) for s in word.symbols)


def word_of_key(key: str, p: int, r: int) -> Word:
    letters = (sigma(), gamma(p), phi(p), psi(p, r))
    return Word(tuple(letters[int(digit)] for digit in key))


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


def reference_words(p: int, r: int, max_degree: int) -> list[tuple[Word, int, int]]:
    """(word, degree, height) of every admissible p-word of degree <=
    max_degree and every sigma^(h-1) psi_{p^r} with h + 1 <= max_degree,
    sorted by degree, height and kinds: one list per suffix, ``degree`` and
    ``height`` per word."""
    s, g, f = sigma(), gamma(p), phi(p)
    found = []

    def record(symbols):
        w = Word(tuple(symbols))
        found.append((w, degree(w), height(w)))

    def grow(suffix, deg, sigma_count):
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
    last = psi(p, r)
    for h in range(1, max_degree):
        record([s] * (h - 1) + [last])
    found.sort(key=lambda item: (item[1], item[2], key_of(item[0])))
    return found


def count_words(p: int, r: int, max_degree: int) -> int:
    """The number of rows of ``reference_words(p, r, max_degree)``."""
    return len(reference_words(p, r, max_degree))
