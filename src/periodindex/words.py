"""Word calculus indexing the torsion of H_*(K(Z/n, 2)).

The words are Cartan's admissible words (Séminaire H. Cartan 1954/55),
built from four symbols: the suspension sigma, one divided-power symbol
gamma_p and one transpotence symbol phi_p per prime, and psi_{p^f}, which
can only ever stand last.  Degree and height are the two gradings the
homology recipe reads off a word:

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

A word has one representation here, its key: the word spelled in kind
digits, "0" sigma, "1" gamma_p, "2" phi_p and "3" psi_{p^r}, so that keys
order like words.  ``words_by_degree`` grows the keys of degree d from
those of degrees d - 1, d / p and (d - 2) / p, ``word_census`` counts them
without building one, and ``render_keys`` spells them in symbols, many at
a time.  The checked symbol-and-word definition the keys must meet is kept
with the tests (``tests/words_reference.py``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import log10

from .bounds import _check_prime_power

_UNICODE, _ASCII = "σγφψ", "sgfy"  # indexed by kind digit
_KEY_LETTERS = bytes.maketrans(b"0123", _ASCII.encode())  # kind digit -> ascii letter
_TO_ASCII = str.maketrans(_UNICODE, _ASCII)


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


def _symbol_texts(p: int, r: int, letters: str) -> tuple[str, str, str, str]:
    """The texts of sigma, gamma_p, phi_p and psi_{p^r}, indexed by kind
    digit, in the alphabet ``letters`` (``_UNICODE`` or ``_ASCII``).

    >>> _symbol_texts(3, 2, _ASCII)
    ('s', 'g_3', 'f_3', 'y_9')
    """
    sigma, gamma, phi, psi = letters
    return sigma, f"{gamma}_{p}", f"{phi}_{p}", f"{psi}_{_power_string(p, r)}"


def words_by_degree(p: int, r: int, max_degree: int) -> Iterator[tuple[int, int, str]]:
    """The rows of ``enumerate_words(p, r, max_degree)`` as (degree, height,
    key), in the same order, one degree at a time.

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


def render_keys(p: int, r: int, keys: Sequence[str], ascii_symbols: bool = False) -> list[str]:
    """The keys of ``words_by_degree`` spelled in symbols: over all keys at
    once, digits become ascii letters, then each letter its symbol's text,
    whose digits no later pass rewrites.

    >>> render_keys(3, 2, ["0123", "00"])
    ['σγ_3φ_3ψ_9', 'σσ']
    """
    text = "\n".join(keys).encode().translate(_KEY_LETTERS).decode()
    for letter, symbol in zip(_ASCII, _symbol_texts(p, r, _ASCII if ascii_symbols else _UNICODE)):
        text = text.replace(letter, symbol)
    return text.split("\n") if keys else []


def enumerate_words(p: int, r: int, max_degree: int) -> list[tuple[str, int, int]]:
    """All admissible p-words of degree <= max_degree, plus the auxiliary
    words sigma^(h-1) psi_{p^r} (height h, degree h + 1).

    Returns (word, degree, height) triples, each word spelled in symbols,
    sorted by degree, then height, then the symbol sequence with
    sigma < gamma < phi < psi: the rows of ``words_by_degree`` with their
    keys rendered.

    >>> [w for w, _, h in enumerate_words(2, 1, 3) if h == 2]
    ['σσ', 'σφ_2', 'σψ_2']
    """
    rows = list(words_by_degree(p, r, max_degree))
    words = render_keys(p, r, [key for _, _, key in rows])
    return [(word, d, h) for word, (d, h, _) in zip(words, rows)]


def word_census(p: int, r: int, max_degree: int, max_rows: int | None = None,
                max_letters: int | None = None) -> tuple[int, int]:
    """(rows, letters) of ``enumerate_words(p, r, max_degree)``: the number
    of words and their total length in symbols, without building a word.

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


def format_word(word: str, ascii_symbols: bool = False) -> str:
    """A word of ``enumerate_words`` as it is, or with ascii_symbols in the
    ascii alphabet σγφψ -> sgfy, e.g. σγ_3φ_3 -> sg_3f_3.

    >>> format_word("σγ_3φ_3ψ_9", ascii_symbols=True)
    'sg_3f_3y_9'
    """
    return word.translate(_TO_ASCII) if ascii_symbols else word
