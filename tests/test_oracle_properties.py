"""Property test: on any product of elementary complexes, the SNF homology of
the tensored chain complex equals the Kunneth product of the closed forms,
in every degree, for the factors in any order.  Products of two P or two E
factors, and twists that share a prime, are where the Tor terms and the
multi-row blocks of the oracle come in."""

import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from periodindex.complexes import (ComplexKind, ElementaryComplex, closed_form_homology,
                                   realize_chain_complex, tensor_chain_complex)
from periodindex.graded import GradedAbelianGroup, kunneth
from periodindex.snf import homology_of_complex

SECOND = (ComplexKind.EP_SECOND, ComplexKind.PE_SECOND)


@st.composite
def elementary(draw):
    kind = draw(st.sampled_from(list(ComplexKind)))
    return ElementaryComplex(kind, draw(st.integers(1, 3)),
                             draw(st.integers(1, 12)) if kind in SECOND else None)


def snf_homology(factors, cap):
    chain = tensor_chain_complex([realize_chain_complex(f, cap) for f in factors], cap)
    return [homology_of_complex(chain, d) for d in range(cap + 1)]


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(elementary(), min_size=1, max_size=4), st.integers(0, 22), st.data())
def _agrees_with_kunneth(factors, cap, data):
    closed = GradedAbelianGroup.unit(cap)
    for f in factors:
        closed = kunneth(closed, closed_form_homology(f, cap), cap)
    expected = [(closed.summands(d)[0], list(closed.invariant_factors(d)))
                for d in range(cap + 1)]
    assert snf_homology(factors, cap) == expected
    assert snf_homology(data.draw(st.permutations(factors)), cap) == expected


def test_snf_homology_of_products_is_kunneth():
    start = time.perf_counter()
    _agrees_with_kunneth()
    assert time.perf_counter() - start < 3.0
