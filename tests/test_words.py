"""Word calculus: degrees, heights, admissibility, enumeration."""

from itertools import product

import pytest

from periodindex.bounds import decimal_string
from periodindex.words import (Symbol, SymbolKind, Word, _power_string, count_words, degree,
                               enumerate_words, format_word, gamma, height,
                               is_admissible, phi, psi, render_keys, sigma,
                               word_census, words_by_degree)


def W(*symbols):
    return Word(tuple(symbols))


class TestSymbolValidation:
    def test_sigma_carries_nothing(self):
        with pytest.raises(ValueError):
            Symbol(SymbolKind.SIGMA, prime=2)

    def test_gamma_needs_prime(self):
        with pytest.raises(ValueError):
            Symbol(SymbolKind.GAMMA)
        with pytest.raises(ValueError):
            gamma(4)

    def test_psi_needs_exponent(self):
        with pytest.raises(ValueError):
            Symbol(SymbolKind.PSI, prime=2)
        assert psi(2, 3).psi_exponent == 3

    def test_only_psi_carries_exponent(self):
        with pytest.raises(ValueError):
            Symbol(SymbolKind.PHI, prime=2, psi_exponent=1)

    # the psi digits come from a Decimal power, never from p ** f; they must
    # match decimal_string(p ** f), which itself switches at p^f = 2^4096
    @pytest.mark.parametrize("p, f", [
        *((2, f) for f in (1, 2, 3, 10, 2048, 4095, 4096, 4097, 20000)),
        *((3, f) for f in (1, 2, 5, 2584, 2585, 2586, 4095, 4096, 4097)),
        *((5, f) for f in (1, 2, 7)), (7, 1), (97, 3),
        *((999983, f) for f in (1, 2, 205, 206, 207, 215, 216, 217, 3000))])
    def test_psi_digits_equal_decimal_string_across_the_threshold(self, p, f):
        assert _power_string(p, f) == decimal_string(p ** f)
        assert psi(p, f).ascii_text == "y_" + decimal_string(p ** f)


class TestWordValidation:
    def test_psi_must_be_last(self):
        with pytest.raises(ValueError):
            W(psi(2, 1), sigma())
        W(sigma(), psi(2, 1))  # fine

    def test_single_prime(self):
        with pytest.raises(ValueError):
            W(gamma(2), phi(3))
        assert W(sigma(), gamma(3), phi(3)).prime == 3
        assert W(sigma(), sigma()).prime is None


class TestDegree:
    def test_sigma_sigma(self):
        assert degree(W(sigma(), sigma())) == 2

    def test_sigma_gamma_phi(self):
        assert degree(W(sigma(), gamma(2), phi(2))) == 5  # 1 + 2p^k at p=2, k=1

    def test_empty(self):
        assert degree(W()) == 0

    def test_phi_gamma_phi(self):
        assert degree(W(phi(2), gamma(2), phi(2))) == 10  # 2 + 2p^(k+1)

    def test_psi(self):
        assert degree(W(psi(3, 2))) == 2
        assert degree(W(sigma(), psi(3, 2))) == 3

    def test_recursion_rules_on_enumerated_words(self):
        for p in (2, 3):
            for word, deg, _ in enumerate_words(p, 1, 20):
                assert degree(word) == deg
                assert degree(Word((sigma(),) + word.symbols)) == 1 + deg
                assert degree(Word((gamma(p),) + word.symbols)) == p * deg
                assert degree(Word((phi(p),) + word.symbols)) == 2 + p * deg


class TestHeight:
    def test_examples(self):
        assert height(W(sigma(), sigma())) == 2
        assert height(W(sigma(), gamma(3), gamma(3), phi(3))) == 2
        assert height(W(gamma(2))) == 0
        assert height(W(sigma(), psi(2, 1))) == 2


class TestAdmissibility:
    def test_height_two_shapes(self):
        assert is_admissible(W(sigma(), sigma()), 2)
        assert is_admissible(W(phi(2), gamma(2), phi(2)), 2)
        assert is_admissible(W(sigma(), phi(2)), 2)  # k = 0 member of sigma gamma^k phi

    def test_bad_first_letter(self):
        assert not is_admissible(W(gamma(2), sigma(), sigma()), 2)

    def test_parity_violation(self):
        # phi with a single sigma to its right
        assert not is_admissible(W(phi(2), sigma()), 2)
        assert not is_admissible(W(sigma(), phi(2), sigma()), 2)
        # two sigmas restore the parity
        assert is_admissible(W(phi(2), sigma(), sigma()), 2)

    def test_empty_and_single_letters(self):
        assert not is_admissible(W(), 2)
        assert not is_admissible(W(sigma()), 2)
        assert not is_admissible(W(phi(2)), 2)

    def test_psi_rejected(self):
        with pytest.raises(ValueError):
            is_admissible(W(sigma(), psi(2, 1)), 2)

    def test_prime_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_admissible(W(sigma(), phi(3)), 2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            is_admissible(W(sigma(), sigma()), 6)


# Independent re-statement of the rules on plain character tuples,
# used as the brute-force enumeration oracle.
def _brute_degree(kinds, p):
    d = 0
    for k in reversed(kinds):
        if k == "s":
            d += 1
        elif k == "g":
            d *= p
        else:
            d = 2 + p * d
    return d


def _brute_admissible(kinds):
    if len(kinds) < 2:
        return False
    if kinds[0] == "g" or kinds[-1] == "g":
        return False
    for i, k in enumerate(kinds):
        if k in "gf" and sum(1 for x in kinds[i + 1:] if x == "s") % 2:
            return False
    return True


def _brute_enumeration(p, max_degree):
    out = set()
    for length in range(1, max_degree + 1):
        for kinds in product("sgf", repeat=length):
            if _brute_admissible(kinds) and _brute_degree(kinds, p) <= max_degree:
                out.add("".join(kinds))
    return out


def _as_kinds(word):
    table = {SymbolKind.SIGMA: "s", SymbolKind.GAMMA: "g", SymbolKind.PHI: "f"}
    return "".join(table[s.kind] for s in word.symbols)


class TestEnumeration:
    def test_height_two_at_cap_three(self):
        listing = enumerate_words(2, 1, 3)
        height_two = {str(w) for w, _, h in listing if h == 2}
        assert height_two == {"σσ", "σφ_2", "σψ_2"}

    def test_empty_below_minimal_degree(self):
        assert enumerate_words(2, 1, 1) == []
        assert enumerate_words(2, 1, 0) == []

    def test_p3_height_two_members(self):
        listing = enumerate_words(3, 1, 7)
        assert [(str(w), d) for w, d, h in listing if h == 2] == \
            [("σσ", 2), ("σφ_3", 3), ("σψ_3", 3), ("σγ_3φ_3", 7)]

    def test_matches_brute_force(self):
        for p, cap in ((2, 9), (3, 9), (5, 8)):
            enumerated = {_as_kinds(w) for w, _, h in enumerate_words(p, 1, cap)
                          if all(s.kind is not SymbolKind.PSI for s in w.symbols)}
            assert enumerated == _brute_enumeration(p, cap)

    def test_sorted_and_unique(self):
        listing = enumerate_words(2, 1, 12)
        keys = [(d, h, tuple(int(s.kind) for s in w.symbols)) for w, d, h in listing]
        assert keys == sorted(keys)
        assert len({w.symbols for w, _, _ in listing}) == len(listing)

    def test_auxiliary_family(self):
        listing = enumerate_words(2, 2, 10)
        auxiliary = [(w, d, h) for w, d, h in listing
                     if any(s.kind is SymbolKind.PSI for s in w.symbols)]
        # sigma^(h-1) psi_{p^r} for every h with h + 1 <= cap
        assert len(auxiliary) == 9
        for w, d, h in auxiliary:
            assert d == h + 1
            assert w.symbols[-1] == psi(2, 2)
            assert all(s == sigma() for s in w.symbols[:-1])

    def test_height_two_census(self):
        # the complete height-2 list: sigma^2, sigma gamma^k phi,
        # phi gamma^k phi, sigma psi, with degrees 2, 1+2p^k, 2+2p^(k+1), 3
        for p in (2, 3, 5):
            cap = 2 + 2 * p ** 2
            expected = {W(sigma(), sigma()).symbols: 2,
                        W(sigma(), psi(p, 1)).symbols: 3}
            k = 0
            while 1 + 2 * p ** k <= cap:
                word = W(sigma(), *[gamma(p)] * k, phi(p))
                expected[word.symbols] = 1 + 2 * p ** k
                k += 1
            k = 0
            while 2 + 2 * p ** (k + 1) <= cap:
                word = W(phi(p), *[gamma(p)] * k, phi(p))
                expected[word.symbols] = 2 + 2 * p ** (k + 1)
                k += 1
            listing = {w.symbols: d for w, d, h in enumerate_words(p, 1, cap) if h == 2}
            assert listing == expected

    def test_words_longer_than_the_recursion_limit(self):
        listing = enumerate_words(1009, 1, 1100)
        assert len(listing) == count_words(1009, 1, 1100) == 3296
        assert listing[-1] == (W(*[sigma()] * 1100), 1100, 1100)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_words(6, 1, 5)
        with pytest.raises(ValueError):
            enumerate_words(2, 0, 5)
        with pytest.raises(ValueError):
            enumerate_words(2, 1, -1)


class TestByDegree:
    def test_keys_spell_the_listing(self):
        for p, r, cap in ((2, 1, 24), (3, 2, 40), (7, 3, 60)):
            listing = enumerate_words(p, r, cap)
            assert list(words_by_degree(p, r, cap)) == \
                [(d, h, "".join(str(int(s.kind)) for s in w.symbols)) for w, d, h in listing]

    def test_render_keys_like_format_word(self):
        # the symbols' own digits (γ_2, ψ_32, ψ_1331...) must survive every pass
        for p, r, cap in ((5, 3, 60), (2, 1, 36), (2, 5, 36), (3, 3, 50), (11, 2, 60)):
            keys = [key for _, _, key in words_by_degree(p, r, cap)]
            for ascii_symbols in (False, True):
                assert render_keys(p, r, keys, ascii_symbols) == \
                    [format_word(w, ascii_symbols) for w, _, _ in enumerate_words(p, r, cap)]
        assert render_keys(2, 3, ["0123"], ascii_symbols=True) == ["sg_2f_2y_8"]
        assert render_keys(2, 1, []) == []


class TestFormatting:
    def test_unicode(self):
        assert format_word(W(sigma(), gamma(3), phi(3))) == "σγ_3φ_3"
        assert format_word(W(sigma(), psi(2, 2))) == "σψ_4"

    def test_ascii(self):
        assert format_word(W(sigma(), gamma(3), phi(3)), ascii_symbols=True) == "sg_3f_3"
        assert format_word(W(sigma(), psi(2, 2)), ascii_symbols=True) == "sy_4"

    def test_empty(self):
        assert format_word(W()) == "(empty)"


# The recursive enumerator and the renderer that enumerate_words and
# format_word replaced, kept as the reference: one list per suffix,
# degree() and height() per word, a tuple of kinds as the sort key, and the
# glyphs looked up per symbol.
def reference_enumerate_words(p, r, max_degree):
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
    h = 1
    while h + 1 <= max_degree:
        record([s] * (h - 1) + [last])
        h += 1
    found.sort(key=lambda item: (item[1], item[2], tuple(int(s.kind) for s in item[0].symbols)))
    return found


REFERENCE_GLYPHS = ({SymbolKind.SIGMA: "σ", SymbolKind.GAMMA: "γ",
                     SymbolKind.PHI: "φ", SymbolKind.PSI: "ψ"},
                    {SymbolKind.SIGMA: "s", SymbolKind.GAMMA: "g",
                     SymbolKind.PHI: "f", SymbolKind.PSI: "y"})


def reference_format_word(word, ascii_symbols=False):
    glyphs = REFERENCE_GLYPHS[ascii_symbols]
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


REFERENCE_CAP = 40


class TestAgainstReference:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_listing_and_renderings(self, p, r):
        reference = reference_enumerate_words(p, r, REFERENCE_CAP)
        # the reference prunes exactly and sorts by degree first, so its
        # listing at a lower cap is the part of degree <= cap
        for cap in range(REFERENCE_CAP + 1):
            listing = enumerate_words(p, r, cap)
            assert listing == [row for row in reference if row[1] <= cap], cap
            assert count_words(p, r, cap) == len(listing)
        for (word, deg, ht), (_, ref_deg, ref_ht) in zip(listing, reference):
            assert (degree(word), height(word)) == (deg, ht) == (ref_deg, ref_ht)
            for ascii_symbols in (False, True):
                assert format_word(word, ascii_symbols) == \
                    reference_format_word(word, ascii_symbols)


class TestCount:
    # count_words(p, r, cap) == len(enumerate_words(p, r, cap)) is checked
    # for every reference listing above
    def test_limit_stops_above_it(self):
        assert count_words(2, 1, 60) == 20042
        assert 10 < count_words(2, 1, 60, limit=10) < 20042
        assert count_words(2, 1, 10 ** 18, limit=10 ** 6) > 10 ** 6

    def test_invalid_arguments(self):
        for args in ((6, 1, 5), (2, 0, 5), (2, 1, -1)):
            with pytest.raises(ValueError):
                count_words(*args)
            with pytest.raises(ValueError):
                next(words_by_degree(*args))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_census_letters_match_listing(self, p):
        for cap in range(REFERENCE_CAP + 1):
            listing = enumerate_words(p, 1, cap)
            assert word_census(p, 1, cap) == \
                (len(listing), sum(len(word) for word, _, _ in listing)), cap

    def test_letter_limit_stops_above_it(self):
        assert word_census(1000003, 1, 20000) == (59996, 599989998)
        rows, letters = word_census(1000003, 1, 20000, max_letters=10 ** 6)
        assert 10 ** 6 < letters < 599989998 and rows < 59996
        assert word_census(2, 1, 10 ** 18, max_letters=10 ** 6)[1] > 10 ** 6
