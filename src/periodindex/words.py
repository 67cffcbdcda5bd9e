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
sigma^(h-1) psi, which is what the elementary-complex model consumes.  It
builds checked ``Word``s from the keys of ``words_by_degree``, which grows
degree d from degrees d - 1, d / p and (d - 2) / p; the CLI renders the
keys many at a time (``render_keys``) instead.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from enum import IntEnum
from math import log10
from operator import attrgetter

from .bounds import _check_prime_power, is_prime


class SymbolKind(IntEnum):
    # the integer values fix the enumeration sort order
    SIGMA = 0
    GAMMA = 1
    PHI = 2
    PSI = 3


_UNICODE, _ASCII = "σγφψ", "sgfy"  # indexed by kind
_KEY_LETTERS = bytes.maketrans(b"0123", _ASCII.encode())  # kind digit -> ascii letter


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
            suffix = "_" + _power_string(prime, psi_exponent)
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


def _power_string(p: int, f: int) -> str:
    """The decimal digits of p^f, formed as an exact ``Decimal`` power.

    p^f is never an int here: past a few thousand bits ``pow`` is Karatsuba
    at best and ``str`` quadratic, while a ``Decimal`` power multiplies in
    decimal at sub-quadratic cost.  Its precision is above the digit count
    of p^f, and a rounded or overflowing result raises rather than print
    wrong digits.

    >>> _power_string(3, 5), len(_power_string(2, 5000))
    ('243', 1506)
    """
    from decimal import MAX_EMAX, Context, Decimal, Inexact, Overflow, localcontext
    with localcontext(Context(prec=int(f * log10(p)) + 2, Emax=MAX_EMAX,
                              traps=[Inexact, Overflow])):
        return str(Decimal(p) ** f)


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
_TEXT, _ASCII_TEXT = attrgetter("text"), attrgetter("ascii_text")


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


def words_by_degree(p: int, r: int, max_degree: int) -> Iterator[tuple[int, int, str]]:
    """The rows of ``enumerate_words(p, r, max_degree)`` as (degree, height,
    key), in the same order, one degree at a time.  The key spells the word
    in kind digits, "0" sigma, "1" gamma_p, "2" phi_p and "3" psi_{p^r}, so
    it orders like the word; ``render_keys`` renders it.

    >>> list(words_by_degree(2, 1, 2))
    [(2, 1, '3'), (2, 2, '00')]
    """
    _check_prime_power(p, r, max_degree)
    # Prepends never undo the parity and last-letter conditions a suffix
    # meets, so degree d grows from the suffixes of degree d - 1 (prepend
    # sigma), d / p (gamma) and (d - 2) / p (phi), as their sigma parity
    # allows.  All grow from the empty word; its one-letter extensions sigma
    # and phi are the only suffixes that neither start with gamma nor are
    # words.  ``even`` maps a degree to its even (height, key) suffixes,
    # ``odd`` holds the odd ones of the degree before.
    even, odd = {0: [(0, "")]}, []
    for d in range(1, max_degree + 1):
        sigma_even = [(h + 1, "0" + k) for h, k in odd]
        odd = [(h + 1, "0" + k) for h, k in even.get(d - 1, ())]
        gamma_led = [(h, "1" + k) for h, k in even.get(d // p, ())] if d % p == 0 else []
        # degree p k + 2 is the last to read the suffixes of degree k
        phi_led = ([(h + 1, "2" + k) for h, k in even.pop((d - 2) // p, ())]
                   if (d - 2) % p == 0 else [])
        even[d] = sigma_even + gamma_led + phi_led
        if d >= 2:
            rows = odd + sigma_even + (phi_led if d > 2 else [])
            rows.append((d - 1, "0" * (d - 2) + "3"))  # sigma^(d-2) psi
            rows.sort()
            for h, k in rows:
                yield d, h, k


def _key_symbols(p: int, r: int) -> dict[str, Symbol]:
    return {str(int(s.kind)): s for s in (sigma(), gamma(p), phi(p), psi(p, r))}


def render_keys(p: int, r: int, keys: Sequence[str], ascii_symbols: bool = False) -> list[str]:
    """The keys of ``words_by_degree`` rendered as ``format_word`` renders
    their words: over all keys at once, digits become ascii letters, then
    each letter its symbol's text, whose digits no later pass rewrites.

    >>> render_keys(3, 2, ["0123", "00"])
    ['σγ_3φ_3ψ_9', 'σσ']
    """
    text = "\n".join(keys).encode().translate(_KEY_LETTERS).decode()
    for s in _key_symbols(p, r).values():
        text = text.replace(_ASCII[s.kind], s.ascii_text if ascii_symbols else s.text)
    return text.split("\n") if keys else []


def enumerate_words(p: int, r: int, max_degree: int) -> list[tuple[Word, int, int]]:
    """All admissible p-words of degree <= max_degree, plus the auxiliary
    words sigma^(h-1) psi_{p^r} (height h, degree h + 1).

    Returns (word, degree, height) triples sorted by degree, then height,
    then the symbol sequence with sigma < gamma < phi < psi: the rows of
    ``words_by_degree``, each key built into a checked ``Word``.

    >>> [str(w) for w, _, h in enumerate_words(2, 1, 3) if h == 2]
    ['σσ', 'σφ_2', 'σψ_2']
    """
    _check_prime_power(p, r, max_degree)
    letter = _key_symbols(p, r).__getitem__  # one shared Symbol per digit
    return [(Word(tuple(map(letter, key))), d, h)
            for d, h, key in words_by_degree(p, r, max_degree)]


def count_words(p: int, r: int, max_degree: int, limit: int | None = None) -> int:
    """``len(enumerate_words(p, r, max_degree))``: the rows of ``word_census``.

    >>> count_words(2, 1, 3)
    5
    """
    return word_census(p, r, max_degree, max_rows=limit)[0]


def word_census(p: int, r: int, max_degree: int, max_rows: int | None = None,
                max_letters: int | None = None) -> tuple[int, int]:
    """(rows, letters) of ``enumerate_words(p, r, max_degree)``: the number
    of words and their total length, without building a word.

    Counts the suffixes of ``words_by_degree`` by degree, sigma parity and
    whether gamma leads, with their total length.  The count stops as soon
    as rows pass ``max_rows`` or letters pass ``max_letters``, returning
    partial sums of which one is still above its limit.

    >>> word_census(2, 1, 3)
    (5, 10)
    """
    _check_prime_power(p, r, max_degree)
    # per degree, [suffixes, letters] in three states: even parity and not
    # gamma-led (sigma- or phi-led), even and gamma-led, odd (always
    # sigma-led, as gamma and phi need even)
    even, gamma_led, odd = {2: [1, 1]}, {}, {1: [1, 1]}  # phi, sigma
    # the auxiliary family sigma^(h-1) psi (h letters, h = 1..max_degree-1),
    # less the two one-letter starts counted below
    starts = (max_degree >= 1) + (max_degree >= 2)
    rows = max(0, max_degree - 1) - starts
    letters = max_degree * (max_degree - 1) // 2 - starts
    for deg in range(1, max_degree + 1):
        (e, el), (g, gl), (o, ol) = (s.pop(deg, (0, 0)) for s in (even, gamma_led, odd))
        rows += e + o
        letters += el + ol
        if (max_rows is not None and rows > max_rows
                or max_letters is not None and letters > max_letters):
            break
        # prepending one letter to each of n suffixes adds n letters
        for state, nxt, n, length in ((odd, deg + 1, e + g, el + gl), (even, deg + 1, o, ol),
                                      (gamma_led, p * deg, e + g, el + gl),
                                      (even, 2 + p * deg, e + g, el + gl)):
            if nxt <= max_degree:
                total = state.setdefault(nxt, [0, 0])
                total[0] += n
                total[1] += length + n
    return rows, letters


def format_word(word: Word, ascii_symbols: bool = False) -> str:
    """Render a word, e.g. σγ_3φ_3; with ascii_symbols: sg_3f_3."""
    if not word.symbols:
        return "(empty)"
    return "".join(map(_ASCII_TEXT if ascii_symbols else _TEXT, word.symbols))
