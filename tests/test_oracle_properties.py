"""Property test: on any product of elementary complexes, the SNF homology of
the tensored chain complex equals the Kunneth product of the closed forms,
in every degree, for the factors in any order.  Products of factors whose
twists share a prime are where the Tor terms and the multi-row blocks of
the oracle come in.  The summand oracle, a direct sum
of translated shapes, gives the same ranks and homology as the whole
tensor product, and its listed homology is its counted homology.  Summed
as one series per shape, it matches the per-summand, per-degree loop, at
the edges of every slot width too, and every degree of its homology table
is a divisibility chain."""

import time
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from periodindex import snf
from periodindex.complexes import (ComplexKind, ElementaryComplex, _cone, _direct_sum, _point,
                                   closed_form_homology, primary_model_chain_complex)
from periodindex.graded import GradedAbelianGroup
from periodindex.snf import ChainComplex, DirectSum, homology_counts, homology_of_complex
from direct_sum_reference import summed_invariants
from kunneth_reference import kunneth
from tensor_reference import per_kind_realization, tensor_chain_complex

@st.composite
def elementary(draw):
    kind = draw(st.sampled_from(list(ComplexKind)))
    return ElementaryComplex(kind, draw(st.integers(1, 3)), draw(st.integers(1, 12)))


def snf_homology(factors, cap):
    chain = tensor_chain_complex([per_kind_realization(f, cap) for f in factors], cap)
    return [homology_of_complex(chain, d) for d in range(cap + 1)]


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(elementary(), min_size=1, max_size=4), st.integers(0, 22), st.data())
def _agrees_with_kunneth(factors, cap, data):
    closed = GradedAbelianGroup.from_summands({0: [0]}, cap)
    for f in factors:
        closed = kunneth(closed, closed_form_homology(f, cap), cap)
    expected = [(free, list(torsion)) for free, torsion in map(closed.summands, range(cap + 1))]
    assert snf_homology(factors, cap) == expected
    assert snf_homology(data.draw(st.permutations(factors)), cap) == expected


def test_snf_homology_of_products_is_kunneth():
    start = time.perf_counter()
    _agrees_with_kunneth()
    assert time.perf_counter() - start < 3.0


def entries(summands, top):
    """Counter of (degree, |boundary entry|) over translated complexes."""
    found = Counter()
    for (chain, base), m in summands.items():
        for n in range(1, min(chain.max_degree, top - base) + 1):
            for col in chain.columns(n):
                for x in col.values():
                    found[base + n, abs(x)] += m
    return found


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(elementary(), min_size=1, max_size=4), st.integers(0, 22))
def _summands_agree_with_the_whole_product(factors, cap):
    summed = _direct_sum(factors, cap)
    whole = tensor_chain_complex([per_kind_realization(f, cap) for f in factors], cap)
    # the same complex up to the order and the signs of its basis (every
    # edge is one cone, whose twist's sign is immaterial): ranks, boundary
    # entries by absolute value, and the homology of the signed product
    assert summed.dims == whole.dims
    assert entries(summed.summands, cap + 1) == entries({(whole, 0): 1}, cap + 1)
    listed = [homology_of_complex(summed, d) for d in range(cap + 1)]
    assert listed == snf_homology(factors, cap)
    # the one listing is the counts, each factor repeated its multiplicity
    assert listed == [(free, list(Counter(torsion).elements()))
                      for free, torsion in (homology_counts(summed, d) for d in range(cap + 1))]


def test_direct_sum_of_shapes_is_the_tensor_product():
    # the summand oracle against the materialised product, up to the cap: the
    # same chain ranks and boundary entries up to sign, and the same homology
    start = time.perf_counter()
    _summands_agree_with_the_whole_product()
    assert time.perf_counter() - start < 3.0


# Cones live for the process (``_cone`` is cached): whatever models were
# built before, a model's homology must be what a fresh table gives.

def counts(c, cap):
    return [(free, dict(torsion)) for free, torsion in
            (homology_counts(c, d) for d in range(cap + 1))]


prime_models = st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 2)).flatmap(
    lambda pr: st.tuples(st.just(pr[0]), st.just(pr[1]), st.integers(0, 12 * pr[0])))
builds = st.one_of(prime_models.map(lambda m: ("model", m)),
                   st.tuples(st.lists(elementary(), min_size=1, max_size=3),
                             st.integers(0, 16)).map(lambda s: ("sum", s)))


def build(kind, args):
    if kind == "model":
        p, r, cap = args
        return primary_model_chain_complex(p, r, cap), cap
    factors, cap = args
    return _direct_sum(factors, cap), cap


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(builds, min_size=1, max_size=6))
def _warm_table_agrees_with_a_fresh_one(sequence):
    warm = [counts(*build(*b)) for b in sequence]
    for b, seen in zip(sequence, warm):
        _cone.cache_clear()
        assert counts(*build(*b)) == seen


def test_shared_cones_give_the_homology_of_a_fresh_table():
    start = time.perf_counter()
    _warm_table_agrees_with_a_fresh_one()
    assert time.perf_counter() - start < 3.0


@settings(max_examples=40, deadline=None, database=None)
@given(prime_models.flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m[2]))))
@example(((2, 1, 42), 30))
@example(((3, 1, 76), 40))
@example(((5, 2, 124), 77))
@example(((2, 2, 60), 13))
def test_a_smaller_cap_builds_no_new_cone(models):
    # below its cap a model is the sub-sum of the model at any larger cap,
    # so every shape it needs is already in the table
    (p, r, hi), lo = models
    _cone.cache_clear()
    primary_model_chain_complex(p, r, hi)
    held = _cone.cache_info()
    primary_model_chain_complex(p, r, lo)
    assert _cone.cache_info().currsize == held.currsize
    assert _cone.cache_info().misses == held.misses


@pytest.mark.parametrize("target", ["validate", "_block_invariants"])
def test_an_interrupted_build_leaves_the_table_sound(monkeypatch, target):
    # a timeout or Ctrl-C can stop a build inside ``_cone`` (validate) or while
    # a cached cone is reduced (_block_invariants); the next build must still
    # give what a fresh table gives
    owner = snf.ChainComplex if target == "validate" else snf
    real, calls = getattr(owner, target), []

    def fails_once(*args):
        calls.append(None)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return real(*args)

    _cone.cache_clear()
    _point()
    monkeypatch.setattr(owner, target, fails_once)
    with pytest.raises(KeyboardInterrupt):
        primary_model_chain_complex(3, 2, 40)
    assert len(calls) == 5
    after = counts(primary_model_chain_complex(3, 2, 40), 40)
    _cone.cache_clear()
    assert counts(primary_model_chain_complex(3, 2, 40), 40) == after


# A direct sum adds up one series per shape times its memoised profile; the
# per-summand, per-degree loop of tests/direct_sum_reference.py must give the same dims,
# ranks and torsion chains in every degree.

def cone_tower(twists):
    shape = _point()
    for h in twists:
        shape = _cone(shape, h)
    return shape


shapes = st.lists(st.integers(-12, 12).filter(bool), max_size=4).map(cone_tower)


@settings(max_examples=100, deadline=None, database=None)
@given(shapes, st.integers(1, 12))
def test_the_sign_of_a_cone_twist_is_immaterial(shape, h):
    # negating every a ox e1 takes the cone of -h to the cone of h, so the
    # fold may give every edge the one cone _cone(A, h), at any base
    plus, minus = _cone(shape, h), _cone(shape, -h)
    assert plus.dims == minus.dims
    assert ([plus.boundary_invariants(n) for n in range(plus.max_degree + 1)]
            == [minus.boundary_invariants(n) for n in range(minus.max_degree + 1)])


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 12).flatmap(lambda top: st.tuples(
           # bases up to two past the larger cap, so shapes run past it
           st.dictionaries(st.tuples(shapes, st.integers(0, top + 2)),
                           st.integers(0, 10 ** 12), min_size=1, max_size=12),
           st.lists(st.integers(0, top), min_size=2, max_size=2))))
def test_summed_profiles_match_the_per_degree_loop(sums):
    # every shape is shared by the two sums, whose caps differ or not, in
    # either order
    summands, caps = sums
    for cap in caps:
        summed = DirectSum(summands, cap)
        dims, invariants = summed_invariants(summands, cap)
        assert summed.dims == dims
        assert homology_of_sum(summed) == homology_of_loop(dims, invariants)


def test_a_rebuilt_or_smaller_model_reduces_nothing(monkeypatch):
    # each shape keeps its profile, so the same model again, or at a smaller
    # cap, reduces no block and reads no boundary's invariants
    primary_model_chain_complex(3, 1, 40)
    calls = []
    block, invariants = snf._block_invariants, snf.ChainComplex.boundary_invariants

    def counted_block(columns):
        calls.append("_block_invariants")
        return block(columns)

    def counted_invariants(self, n):
        calls.append("boundary_invariants")
        return invariants(self, n)

    monkeypatch.setattr(snf, "_block_invariants", counted_block)
    monkeypatch.setattr(snf.ChainComplex, "boundary_invariants", counted_invariants)
    primary_model_chain_complex(3, 1, 40)
    primary_model_chain_complex(3, 1, 25)
    assert calls == []


# Series slots are 1, 2, 4 or 8 bytes wide, or 8k bytes from 2^64 on, as the
# sum's bound asks: multiplicities on either side of each width's edge, and
# shapes whose torsion lies wholly above the cap, must sum as the per-degree
# loop does, and the summands must read back as given, cut at the cap.  A
# fold keeps no base above its own cap.

EDGES = (2 ** 8 - 1, 2 ** 16 - 1, 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 70)


def lone_edge(k, h):
    """Z in degrees k and k + 1 with d = h: torsion in degree k + 1 alone."""
    return ChainComplex([0] * k + [1, 1], {k + 1: [{0: h}]})


def homology_of_sum(summed):
    """Every degree below the cap of ``summed`` as ``homology_counts`` reads
    it, the torsion as listed (order, multiplicity) pairs."""
    return [(free, list(counts.items())) for free, counts in
            (homology_counts(summed, n) for n in range(summed.max_degree))]


def homology_of_loop(dims, invariants):
    """The same from the per-degree loop's dims and boundary invariants:
    the dim less both boundary ranks and the torsion of the next boundary."""
    return [(dim - out - into, list(torsion.items())) for dim, (out, _), (into, torsion)
            in zip(dims, invariants, invariants[1:])]


packed_sums = st.integers(0, 12).flatmap(lambda cap: st.tuples(
    st.dictionaries(
        st.tuples(shapes | st.builds(lone_edge, st.integers(0, 3), st.integers(1, 6)),
                  st.integers(0, cap + 2)),
        st.sampled_from((0, 1, *EDGES, *(e + 1 for e in EDGES))),
        min_size=1, max_size=6),
    st.just(cap)))


@settings(max_examples=100, deadline=None, database=None)
@given(packed_sums, st.lists(elementary(), min_size=1, max_size=3), st.integers(0, 16))
@example(({(_point(), 2): 2 ** 8 - 1}, 2), [ElementaryComplex(ComplexKind.PE_SECOND, 1, 2)], 6)
@example(({(_point(), 2): 2 ** 64 - 1}, 2), [ElementaryComplex(ComplexKind.EP_SECOND, 1, 3)], 9)
@example(({(lone_edge(1, 2), 3): 2 ** 70}, 3), [ElementaryComplex(ComplexKind.EP_SECOND, 1, 2)], 0)
@example(({(ChainComplex([0], {}), 0): 2 ** 8, (lone_edge(0, 2), 1): 1}, 2),
         [ElementaryComplex(ComplexKind.EP_SECOND, 1, 2)], 0)
def test_packed_slots_match_the_per_degree_loop(sums, factors, fold_cap):
    summands, cap = sums
    summed = DirectSum(summands, cap)
    assert dict(summed.summands) == {key: m for key, m in summands.items() if m and key[1] <= cap}
    folded = _direct_sum(factors, fold_cap)
    assert max(base for _, base in folded.summands) <= fold_cap + 1
    for c, parts in ((summed, summands), (folded, folded.summands)):
        dims, invariants = summed_invariants(parts, c.max_degree)
        assert c.dims == dims
        assert homology_of_sum(c) == homology_of_loop(dims, invariants)


# A fold's slots are as wide as its largest dim needs, no wider: the
# cell-count polynomial it is read from runs through slot top = cap + 1,
# where four EP factors put 286 cells (every lower slot holds at most 220).

@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(elementary(), min_size=1, max_size=4), st.integers(0, 22))
@example([ElementaryComplex(ComplexKind.EP_SECOND, 1, 3)] * 4, 9)
def test_a_fold_takes_the_slot_width_of_its_largest_dim(factors, cap):
    folded = _direct_sum(factors, cap)
    assert folded._width == snf._slot_width(max(folded.dims))
    dims, invariants = summed_invariants(folded.summands, folded.max_degree)
    assert folded.dims == dims
    assert homology_of_sum(folded) == homology_of_loop(dims, invariants)


def test_a_shape_past_the_cap_may_overflow_its_slots():
    # the width bounds a sum up to its cap, not its shapes past it: at base
    # 2 under cap 2, the 300 cells and Z/2's of this shape's degrees 1 and 2
    # overflow its 1-byte profile, which carries upwards only
    wide = ChainComplex([1, 300, 300], {2: [{i: 2} for i in range(300)]})
    summed = DirectSum.from_series({wide: 1 << 16}, 1, 2)
    dims, invariants = summed_invariants({(wide, 2): 1}, 2)
    assert summed.dims == dims == (0, 0, 1)
    assert homology_of_sum(summed) == homology_of_loop(dims, invariants)


# A sum's homology is one table built with it: in every degree below the cap
# the free rank is the dim less both boundary ranks and the torsion is that
# of the next boundary, and degrees outside it are refused as for a complex.

@settings(max_examples=100, deadline=None, database=None)
@given(packed_sums, st.lists(elementary(), min_size=1, max_size=3), st.integers(0, 16))
def test_homology_counts_read_the_table_of_the_sum(sums, factors, fold_cap):
    summands, cap = sums
    for c in (DirectSum(summands, cap), _direct_sum(factors, fold_cap)):
        top = c.max_degree
        assert homology_of_sum(c) == homology_of_loop(*summed_invariants(c.summands, top))
        with pytest.raises(ValueError, match=r"^no homology in negative degree -1$"):
            homology_counts(c, -1)
        for n in (top, top + 1):
            with pytest.raises(ValueError, match=rf"^homology needs the boundary from degree "
                                                 rf"{n + 1}; complex is truncated at {top}$"):
                homology_counts(c, n)


# Every degree of a sum's table is canonical: ascending orders > 1, counts
# >= 1, each order dividing the next, as the per-degree loop merges them.
# Two lone edges at base 0 give Z/2 + Z/3 in degree 0, which only the
# chain step turns into Z/6.

def is_chain(counts):
    orders = list(counts)
    return (orders == sorted(orders) and all(e > 1 for e in orders)
            and all(m >= 1 for m in counts.values())
            and all(b % a == 0 for a, b in zip(orders, orders[1:])))


@settings(max_examples=150, deadline=None, database=None)
@given(packed_sums, st.lists(elementary(), min_size=1, max_size=4), st.integers(0, 22))
@example(({(lone_edge(0, 2), 0): 1, (lone_edge(0, 3), 0): 1}, 2),
         [ElementaryComplex(ComplexKind.PE_SECOND, 1, 2)], 6)
@example(({(lone_edge(1, 4), 1): 3, (lone_edge(0, 6), 2): 2, (_point(), 0): 1}, 4),
         [ElementaryComplex(ComplexKind.EP_SECOND, 1, 3)] * 2, 9)
def test_every_degree_of_the_table_is_a_divisibility_chain(sums, factors, fold_cap):
    summands, cap = sums
    for c in (DirectSum(summands, cap), _direct_sum(factors, fold_cap)):
        _, invariants = summed_invariants(c.summands, c.max_degree)
        for n in range(c.max_degree):
            _, counts = homology_counts(c, n)
            assert is_chain(counts)
            assert list(counts.items()) == list(invariants[n + 1][1].items())
