"""Property test: every row of ``periodindex.words`` is an admissible word
of the checked reference in ``tests/words_reference.py``, on any prime
p <= 7, r <= 3 and degree <= 40. The rows' texts, degrees and heights are
compared with the reference exhaustively on that domain in
``tests/test_words.py::TestAgainstReference``."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from periodindex.words import words_by_degree
from words_reference import SymbolKind, is_admissible, psi, sigma, word_of_key


@settings(max_examples=60, deadline=None, database=None)
@given(st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.integers(0, 40)))
def test_every_row_is_admissible_or_a_psi_word(listing):
    p, r, cap = listing
    for _, h, key in words_by_degree(p, r, cap):
        word = word_of_key(key, p, r)
        if word.symbols[-1].kind is SymbolKind.PSI:
            assert word.symbols == (sigma(),) * (h - 1) + (psi(p, r),), key
        else:
            assert is_admissible(word, p), key
