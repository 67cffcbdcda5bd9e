"""Word calculus: the checked reference definition (degrees, heights,
admissibility) and the package's keys, rows and renderings against it."""

from itertools import product

import pytest

from periodindex.bounds import decimal_string
from periodindex.words import (_power_string, enumerate_words, format_word, render_keys,
                               word_census, words_by_degree)
from words_reference import (Symbol, SymbolKind, Word, count_words, degree, gamma, height,
                             is_admissible, key_of, phi, psi, reference_words, sigma, spell,
                             word_of_key)


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
        assert render_keys(p, f, ["3"], ascii_symbols=True) == [psi(p, f).ascii_text] == \
            ["y_" + decimal_string(p ** f)]


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
            for deg, _, key in words_by_degree(p, 1, 20):
                word = word_of_key(key, p, 1)
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


class TestEnumeration:
    def test_height_two_at_cap_three(self):
        listing = enumerate_words(2, 1, 3)
        height_two = {w for w, _, h in listing if h == 2}
        assert height_two == {"σσ", "σφ_2", "σψ_2"}

    def test_empty_below_minimal_degree(self):
        assert enumerate_words(2, 1, 1) == []
        assert enumerate_words(2, 1, 0) == []

    def test_p3_height_two_members(self):
        listing = enumerate_words(3, 1, 7)
        assert [(w, d) for w, d, h in listing if h == 2] == \
            [("σσ", 2), ("σφ_3", 3), ("σψ_3", 3), ("σγ_3φ_3", 7)]

    def test_matches_brute_force(self):
        for p, cap in ((2, 9), (3, 9), (5, 8)):
            enumerated = {key.translate(str.maketrans("012", "sgf"))
                          for _, _, key in words_by_degree(p, 1, cap) if "3" not in key}
            assert enumerated == _brute_enumeration(p, cap)

    def test_sorted_and_unique(self):
        keys = list(words_by_degree(2, 1, 12))
        assert keys == sorted(set(keys))

    def test_auxiliary_family(self):
        listing = enumerate_words(2, 2, 10)
        auxiliary = [(w, d, h) for w, d, h in listing if "ψ" in w]
        # sigma^(h-1) psi_{p^r} for every h with h + 1 <= cap
        assert auxiliary == [("σ" * (h - 1) + "ψ_4", h + 1, h) for h in range(1, 10)]

    def test_height_two_census(self):
        # the complete height-2 list: sigma^2, sigma gamma^k phi,
        # phi gamma^k phi, sigma psi, with degrees 2, 1+2p^k, 2+2p^(k+1), 3
        for p in (2, 3, 5):
            cap = 2 + 2 * p ** 2
            expected = {W(sigma(), sigma()): 2, W(sigma(), psi(p, 1)): 3}
            k = 0
            while 1 + 2 * p ** k <= cap:
                expected[W(sigma(), *[gamma(p)] * k, phi(p))] = 1 + 2 * p ** k
                k += 1
            k = 0
            while 2 + 2 * p ** (k + 1) <= cap:
                expected[W(phi(p), *[gamma(p)] * k, phi(p))] = 2 + 2 * p ** (k + 1)
                k += 1
            listing = {w: d for w, d, h in enumerate_words(p, 1, cap) if h == 2}
            assert listing == {spell(w): d for w, d in expected.items()}

    def test_words_longer_than_the_recursion_limit(self):
        listing = enumerate_words(1009, 1, 1100)
        assert len(listing) == word_census(1009, 1, 1100)[0] == 3296
        assert listing[-1] == ("σ" * 1100, 1100, 1100)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_words(6, 1, 5)
        with pytest.raises(ValueError):
            enumerate_words(2, 0, 5)
        with pytest.raises(ValueError):
            enumerate_words(2, 1, -1)


class TestByDegree:
    def test_keys_spell_the_listing(self):
        # beyond TestAgainstReference's domain: p = 11, r = 5, degree 60
        for p, r, cap in ((7, 3, 60), (11, 2, 60), (2, 5, 36)):
            assert list(words_by_degree(p, r, cap)) == \
                [(d, h, key_of(w)) for w, d, h in reference_words(p, r, cap)]

    def test_render_keys_like_the_reference(self):
        # the symbols' own digits (γ_2, ψ_32, ψ_1331...) must survive every pass
        for p, r, cap in ((5, 3, 60), (2, 1, 36), (2, 5, 36), (3, 3, 50), (11, 2, 60)):
            keys = [key for _, _, key in words_by_degree(p, r, cap)]
            for ascii_symbols in (False, True):
                assert render_keys(p, r, keys, ascii_symbols) == \
                    [spell(word_of_key(key, p, r), ascii_symbols) for key in keys]
        assert render_keys(2, 3, ["0123"], ascii_symbols=True) == ["sg_2f_2y_8"]
        assert render_keys(2, 1, []) == []


class TestFormatting:
    def test_unicode(self):
        assert format_word("σγ_3φ_3") == "σγ_3φ_3"
        assert format_word("σψ_4") == "σψ_4"

    def test_ascii(self):
        assert format_word("σγ_3φ_3", ascii_symbols=True) == "sg_3f_3"
        assert format_word("σψ_4", ascii_symbols=True) == "sy_4"

    def test_ascii_spelling_is_the_rendered_ascii(self):
        for p, r, cap in ((2, 1, 24), (13, 4, 30)):
            keys = [key for _, _, key in words_by_degree(p, r, cap)]
            assert [format_word(w, ascii_symbols=True) for w, _, _ in enumerate_words(p, r, cap)] \
                == render_keys(p, r, keys, ascii_symbols=True)

    def test_empty(self):
        # no listing row is empty; the reference spells the empty word
        assert spell(W()) == str(W()) == "(empty)"


REFERENCE_CAP = 40


class TestAgainstReference:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_listing_and_renderings(self, p, r):
        reference = reference_words(p, r, REFERENCE_CAP)
        # the reference prunes exactly and sorts by degree first, so its
        # listing at a lower cap is the part of degree <= cap
        for cap in range(REFERENCE_CAP + 1):
            below = [row for row in reference if row[1] <= cap]
            assert list(words_by_degree(p, r, cap)) == [(d, h, key_of(w)) for w, d, h in below]
            listing = enumerate_words(p, r, cap)
            assert listing == [(spell(w), d, h) for w, d, h in below], cap
            assert word_census(p, r, cap)[0] == len(listing) == count_words(p, r, cap)
        for (word, deg, ht), (text, _, _) in zip(reference, listing):
            assert (degree(word), height(word)) == (deg, ht)
            assert format_word(text, ascii_symbols=True) == spell(word, ascii_symbols=True)


class TestCount:
    # word_census(p, r, cap)[0] == count_words(p, r, cap) is checked for
    # every reference listing above
    def test_limit_stops_above_it(self):
        assert word_census(2, 1, 60)[0] == 20042
        assert 10 < word_census(2, 1, 60, max_rows=10)[0] < 20042
        assert word_census(2, 1, 10 ** 18, max_rows=10 ** 6)[0] > 10 ** 6

    def test_invalid_arguments(self):
        for args in ((6, 1, 5), (2, 0, 5), (2, 1, -1)):
            with pytest.raises(ValueError):
                word_census(*args)
            with pytest.raises(ValueError):
                next(words_by_degree(*args))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_census_letters_match_listing(self, p):
        for cap in range(REFERENCE_CAP + 1):
            reference = reference_words(p, 1, cap)
            assert word_census(p, 1, cap) == \
                (len(reference), sum(len(word) for word, _, _ in reference)), cap

    def test_letter_limit_stops_above_it(self):
        assert word_census(1000003, 1, 20000) == (59996, 599989998)
        rows, letters = word_census(1000003, 1, 20000, max_letters=10 ** 6)
        assert 10 ** 6 < letters < 599989998 and rows < 59996
        assert word_census(2, 1, 10 ** 18, max_letters=10 ** 6)[1] > 10 ** 6
