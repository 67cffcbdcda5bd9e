"""Property test: on any product of elementary complexes, the SNF homology of
the tensored chain complex equals the Kunneth product of the closed forms,
in every degree, for the factors in any order.  Products of two P or two E
factors, and twists that share a prime, are where the Tor terms and the
multi-row blocks of the oracle come in.  The summand oracle, a direct sum
of translated shapes, gives the same ranks and homology as the whole
tensor product, and its listed homology is its counted homology."""

import time
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from periodindex.complexes import (ComplexKind, ElementaryComplex, _direct_sum,
                                   closed_form_homology)
from periodindex.graded import GradedAbelianGroup, kunneth
from periodindex.snf import homology_counts, homology_of_complex
from tensor_reference import per_kind_realization, tensor_chain_complex

SECOND = (ComplexKind.EP_SECOND, ComplexKind.PE_SECOND)


@st.composite
def elementary(draw):
    kind = draw(st.sampled_from(list(ComplexKind)))
    return ElementaryComplex(kind, draw(st.integers(1, 3)),
                             draw(st.integers(1, 12)) if kind in SECOND else None)


def snf_homology(factors, cap):
    chain = tensor_chain_complex([per_kind_realization(f, cap) for f in factors], cap)
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


def entries(summands, top):
    """Counter of (degree, boundary entry) over translated complexes."""
    found = Counter()
    for (chain, base), m in summands.items():
        for n in range(1, min(chain.max_degree, top - base) + 1):
            for col in chain.columns(n):
                for x in col.values():
                    found[base + n, x] += m
    return found


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(elementary(), min_size=1, max_size=4), st.integers(0, 22))
def _summands_agree_with_the_whole_product(factors, cap):
    summed = _direct_sum(factors, cap)
    whole = tensor_chain_complex([per_kind_realization(f, cap) for f in factors], cap)
    # the same complex up to the order of its basis: ranks, and boundary
    # entries with their Koszul signs
    assert summed.dims == whole.dims
    assert entries(summed.summands, cap + 1) == entries({(whole, 0): 1}, cap + 1)
    listed = [homology_of_complex(summed, d) for d in range(cap + 1)]
    assert listed == snf_homology(factors, cap)
    # the one listing is the counts, each factor repeated its multiplicity
    assert listed == [(free, list(Counter(torsion).elements()))
                      for free, torsion in (homology_counts(summed, d) for d in range(cap + 1))]


def test_direct_sum_of_shapes_is_the_tensor_product():
    # the summand oracle against the materialised product, up to the cap: the
    # same chain ranks and signed boundary entries, and the same homology
    start = time.perf_counter()
    _summands_agree_with_the_whole_product()
    assert time.perf_counter() - start < 3.0
