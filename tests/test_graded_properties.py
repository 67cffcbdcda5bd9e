"""Property tests: the test-side pairwise Kunneth product against its
literal definition, one list entry per pair of cyclic summands, plus its
algebraic laws and JSON, the closed forms against the per-degree summand
lists they replaced, the model homologies against the pairwise fold, the
packed torsion counts against the list-based ones, the per-degree reads
against the bodies they replaced, and the one-pass constructor against
the sort-then-check body it replaced, merging into invariant factors
through the tower reference."""

import json
from collections import Counter
from math import gcd, lcm
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

import kunneth_reference as reference
import torsion_counts_reference
from graded_constructor_reference import checked_parts
from periodindex import complexes, graded
from periodindex.complexes import (ComplexKind, ElementaryComplex, _torsion_counts,
                                   closed_form_homology, model_homology, primary_model_homology)
from periodindex.graded import GradedAbelianGroup, exponent


def reference_kunneth(a, b, max_degree):
    """Kunneth product with one list entry per pair of cyclic summands:
    Z/x ox Z/y = Z/gcd(x, y), and so is Tor(Z/x, Z/y) one degree up, except
    that Tor vanishes against Z (order 0, and gcd(0, y) = y)."""
    acc = {}
    for i in range(max_degree + 1):
        free_a, tors_a = a.summands(i)
        cyclics_a = [0] * free_a + list(tors_a)
        for j in range(max_degree - i + 1):
            free_b, tors_b = b.summands(j)
            cyclics_b = [0] * free_b + list(tors_b)
            for x in cyclics_a:
                for y in cyclics_b:
                    acc.setdefault(i + j, []).append(gcd(x, y))
                    if x and y and i + j + 1 <= max_degree:
                        acc.setdefault(i + j + 1, []).append(gcd(x, y))
    return GradedAbelianGroup.from_summands(acc, max_degree)


ORDERS = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 30])
CAPS = st.integers(0, 8)
SETTINGS = settings(max_examples=80, deadline=None, database=None)


@st.composite
def summand_lists(draw, cap=None, orders=ORDERS):
    """({degree: cyclic orders as drawn}, cap), the input of ``from_summands``."""
    cap = draw(CAPS) if cap is None else cap
    return {d: draw(st.lists(orders, max_size=4)) for d in range(cap + 1)}, cap


def groups(cap=None, orders=ORDERS):
    return summand_lists(cap, orders).map(
        lambda drawn: GradedAbelianGroup.from_summands(*drawn))


def same_cap(n):
    return CAPS.flatmap(lambda cap: st.tuples(*(groups(cap) for _ in range(n))))


@SETTINGS
@given(groups(), groups())
def test_kunneth_equals_pairwise_reference(a, b):
    cap = min(a.max_degree, b.max_degree)
    out, expected = reference.kunneth(a, b, cap), reference_kunneth(a, b, cap)
    assert out == expected
    assert out.to_json() == expected.to_json()


# pairwise coprime orders, each coprime to most of ORDERS, so that many
# pairs of orders are skipped before any degree is looked at
COPRIME_ORDERS = st.one_of(ORDERS, st.sampled_from([7, 25, 10 ** 20 + 39]))


@SETTINGS
@given(groups(orders=COPRIME_ORDERS), groups(orders=COPRIME_ORDERS))
def test_kunneth_with_coprime_orders_equals_pairwise_reference(a, b):
    cap = min(a.max_degree, b.max_degree)
    assert reference.kunneth(a, b, cap) == reference_kunneth(a, b, cap)


@SETTINGS
@given(groups(orders=COPRIME_ORDERS), st.data())
def test_kunneth_with_unit_is_restriction(a, data):
    cap = data.draw(st.integers(0, a.max_degree))
    unit = GradedAbelianGroup.from_summands({0: [0]}, cap)
    restricted = GradedAbelianGroup(a.parts[:cap + 1])
    assert reference.kunneth(a, unit, cap) == restricted
    assert reference.kunneth(unit, a, cap) == restricted


# the model references fold their factors one by one in whatever order
# they come, which these two laws make safe; groups are in invariant
# factors, so == is isomorphism
@SETTINGS
@given(same_cap(2))
def test_kunneth_commutes_up_to_isomorphism(pair):
    a, b = pair
    cap = a.max_degree
    assert reference.kunneth(a, b, cap).parts == reference.kunneth(b, a, cap).parts


@SETTINGS
@given(same_cap(3))
def test_kunneth_associates_up_to_isomorphism(triple):
    a, b, c = triple
    cap = a.max_degree
    left = reference.kunneth(reference.kunneth(a, b, cap), c, cap)
    right = reference.kunneth(a, reference.kunneth(b, c, cap), cap)
    assert left.parts == right.parts


@SETTINGS
@given(groups())
def test_json_round_trip_is_exact(g):
    payload = g.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert list(payload) == [str(d) for d in range(g.max_degree + 1)]
    for d in range(g.max_degree + 1):
        free, orders = g.summands(d)
        assert payload[str(d)] == {"free": free, "torsion": [str(t) for t in orders]}


# orders past 2^4096 take decimal_string's divide-and-conquer path and still
# have under 4300 digits, so str converts them for the reference; drawn from
# a small pool, one order recurs in several degrees
LISTED_ORDERS = st.one_of(ORDERS, st.sampled_from([2 ** 4096 + 1, 3 ** 2600, 10 ** 1300 + 7]))


@SETTINGS
@given(groups(orders=LISTED_ORDERS))
def test_listings_agree_and_convert_each_order_once(g):
    with mock.patch.object(graded, "decimal_string", wraps=graded.decimal_string) as spy:
        payload = g.to_json()
    assert spy.call_count == len({t for _, pairs in g.parts for t, _ in pairs})
    for d, (free, pairs) in enumerate(g.parts):
        orders = [t for t, m in pairs for _ in range(m)]
        strings = [str(t) for t in orders]
        assert g.summands(d) == (free, tuple(orders))
        assert payload[str(d)] == {"free": free, "torsion": strings}
        pieces = ["Z"] if free == 1 else [f"Z^{free}"] if free else []
        assert g.describe(d) == (" + ".join(pieces + ["Z/" + t for t in strings]) or "0")


@SETTINGS
@given(summand_lists())
def test_exponent_is_lcm_of_expanded_summands(drawn):
    summands, cap = drawn
    g = GradedAbelianGroup.from_summands(summands, cap)
    for d, orders in summands.items():  # as drawn, not in invariant factors
        assert exponent(g, d) == (lcm(*(t for t in orders if t)), orders.count(0))


def reference_closed_form(c, max_degree):
    """Homology of an elementary complex as summand lists per degree, through
    ``from_summands``."""
    q = c.q
    summands = {0: [0]}
    if c.kind is ComplexKind.EP_SECOND:
        k = 0
        while 2 * q - 1 + 2 * q * k <= max_degree:
            summands[2 * q - 1 + 2 * q * k] = [c.h]
            k += 1
    else:
        k = 1
        while 2 * q * k <= max_degree:
            summands[2 * q * k] = [c.h * k]
            k += 1
    return GradedAbelianGroup.from_summands(summands, max_degree)


@st.composite
def elementary(draw):
    kind = draw(st.sampled_from(ComplexKind))
    return ElementaryComplex(kind, draw(st.integers(1, 4)), draw(st.integers(1, 9)))


@settings(max_examples=300, deadline=None, database=None)
@given(elementary(), st.integers(0, 60))
@example(ElementaryComplex(ComplexKind.EP_SECOND, 1, 1), 60)
@example(ElementaryComplex(ComplexKind.PE_SECOND, 4, 1), 60)
def test_closed_form_equals_summand_lists(c, cap):
    assert closed_form_homology(c, cap).parts == reference_closed_form(c, cap).parts


def assert_chains(g):
    """Every degree of ``g`` is a divisibility chain whose largest order (1
    for none) is the degree's exponent, as the ``homology`` listing reads it."""
    for d in range(g.max_degree + 1):
        chain = g.summands(d)[1]
        assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
        assert chain[-1:] in ((), (exponent(g, d)[0],))


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(2, 60), st.integers(0, 24))
def test_model_homology_is_the_invariant_factor_chain(n, cap):
    # the pairwise fold's orders (Z/2 + Z/3) are merged by its constructor
    got, pairwise = model_homology(n, cap), reference.model_homology(n, cap)
    assert_chains(got)
    assert got.parts == pairwise.parts


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(2, 120), st.integers(0, 80))
def test_model_homology_equals_the_split_fold(n, cap):
    assert model_homology(n, cap).parts == reference.split_model_homology(n, cap).parts


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(st.integers(2, 120), st.sampled_from([1000003 * 1000033, 2 * 999983])),
       st.integers(0, 259), st.integers(1, 260))
@example(1000003 * 1000033, 63, 260)
def test_model_homology_to_a_lower_degree_is_a_prefix(n, cap, more):
    # `homology` builds a listing to degrees growing fourfold and refuses it
    # at the first degree past a limit: that needs each build to be a prefix
    # of every deeper one, though factors and primes above the lower degree
    # drop out of its model
    top = min(cap + more, 260)
    assert model_homology(n, cap).parts == model_homology(n, top).parts[:cap + 1]


@SETTINGS
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 4), st.integers(0, 124))
def test_primary_model_homology_equals_pairwise_reference(p, r, cap):
    got = primary_model_homology(p, r, cap)
    assert got.parts == reference.primary_model_homology(p, r, cap).parts
    assert_chains(got)


@SETTINGS
@given(summand_lists())
def test_invariant_factors_equal_the_tower_reference(drawn):
    summands, cap = drawn
    g = GradedAbelianGroup.from_summands(summands, cap)
    for d, orders in summands.items():
        torsion = Counter(t for t in orders if t > 1)
        assert g.summands(d) == (orders.count(0), reference.invariant_factors(torsion.items()))


# mod-q series of the model factors: s even, a = s - 1 (E ox P) or s + 1 (P ox E)
SERIES = st.tuples(st.integers(1, 220), st.sampled_from([-1, 1])).map(
    lambda k_sign: (2 * k_sign[0] + k_sign[1], 2 * k_sign[0]))


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(SERIES, max_size=12), st.integers(0, 400))
@example([(3, 2)], 0)
@example([(3, 2), (5, 6)], 1)
@example([(39, 40)], 39)  # one factor, s past the cap and a at it
@example([(3, 2)] * 8, 400)  # 402^8 > 2^64: 16-byte slots
def test_packed_torsion_counts_equal_the_list_reference(series, cap):
    with mock.patch.object(complexes, "_unpack", wraps=complexes._unpack) as spy:
        counts = _torsion_counts(series, cap)
    assert counts == torsion_counts_reference.torsion_counts(series, cap)
    (packed, width, slots), _ = spy.call_args  # one series, cut to the cap's slots
    assert slots == cap + 1 and 0 <= packed < 1 << 8 * width * slots


def reference_exponent(a, degree):
    free, pairs = a._part(degree)
    return lcm(*(t for t, _ in pairs)), free


def reference_to_json(a):
    names = {t: graded.decimal_string(t) for t in {u for _, pairs in a.parts for u, _ in pairs}}
    return {str(d): {"free": free, "torsion": graded._listing(pairs, names.get)}
            for d, (free, pairs) in enumerate(a.parts)}


@SETTINGS
@given(groups(orders=LISTED_ORDERS))
@example(GradedAbelianGroup.from_summands({0: [0], 1: [4, 6], 2: [6, 4, 4]}, 3))  # lcm 12
@example(GradedAbelianGroup.from_summands({}, 0))
def test_per_degree_reads_equal_the_bodies_they_replaced(g):
    assert g.to_json() == reference_to_json(g)
    for d in range(g.max_degree + 1):
        assert exponent(g, d) == reference_exponent(g, d)
    for d in (-1, -5, g.max_degree + 1, g.max_degree + 7):
        message = f"degree {d} is outside the trusted range 0..{g.max_degree}"
        with pytest.raises(ValueError) as ours:
            exponent(g, d)
        with pytest.raises(ValueError) as theirs:
            reference_exponent(g, d)
        assert str(ours.value) == str(theirs.value) == message


# The constructor checks and sorts each degree in one pass: on valid and
# invalid parts alike it must keep what the sort-then-check body kept, with
# every degree that is no divisibility chain merged into one, or raise its
# ValueError with the same message.  Pairs come as tuples, lists and dict
# views, sorted or not, with orders 0 and 1, count 0 and repeats, in chains
# (2 | 4 | 12) and not (4, 6).

PAIRS = st.lists(st.tuples(st.sampled_from([0, 1, 2, 3, 4, 6, 9, 12]), st.integers(-1, 3)),
                 max_size=4)
DEGREE_PAIRS = PAIRS.flatmap(lambda pairs: st.sampled_from(
    [tuple(pairs), list(pairs), tuple(sorted(pairs)), dict(pairs).items()]))


def built_or_refused(build, parts):
    try:
        return "built", build(parts)
    except ValueError as refusal:
        return "refused", str(refusal)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-2, 3), DEGREE_PAIRS), max_size=5)
       .flatmap(lambda parts: st.sampled_from([tuple(parts), parts])))
@example(())
@example([])
@example(((-1, ()),))
@example(((1, ()), (-1, ((2, 1),))))
@example(((0, ((0, 1),)),))
@example(((0, ((1, 1),)),))
@example(((0, ((2, 0),)),))
@example(((0, ((3, 1), (1, 2))),))
@example(((0, ((4, 1), (0, 1))),))
@example(((0, ((4, 1), (2, 0))),))
@example(((0, ((2, 1), (2, 3))),))
@example(((0, ((4, 1), (3, 1), (4, 2))),))
@example(((1, [(4, 1), (2, 3)]), (0, {3: 2}.items()), (0, {9: 1, 3: 2}.items())))
@example(((0, ((2, 1), (3, 1))),))  # Z/6
@example(((0, ((2, 1), (4, 1), (6, 1))),))  # each divides by the first, 6 not by 4
@example(((1, ((2, 3), (4, 1))), (0, [(6, 2), (4, 1)]), (0, {2: 1, 12: 2}.items()),
          (2, {9: 1, 6: 2, 4: 3}.items())))  # chains and not, mixed
def test_constructor_equals_the_sort_then_check_reference(parts):
    ours = built_or_refused(lambda parts: GradedAbelianGroup(parts).parts, parts)
    assert ours == built_or_refused(checked_parts, parts)


# Pairs with no length, read once from a generator, are sorted and checked
# as the reference sorts and checks them; an empty one is an empty degree.

@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-2, 3), PAIRS), max_size=5))
@example([(0, [])])
@example([(-1, [])])
@example([(2, []), (0, [(3, 1)]), (0, [(9, 1), (3, 2)])])
@example([(0, [(2, 1), (2, 3)])])
@example([(0, [(3, 1), (2, 1)]), (1, [(4, 1), (2, 2)]), (0, [(6, 1), (4, 1), (2, 1)])])
def test_constructor_reads_pairs_from_a_generator_as_the_reference_does(degrees):
    def parts():  # fresh generators for each build
        return tuple((free, (pair for pair in pairs)) for free, pairs in degrees)
    ours = built_or_refused(lambda parts: GradedAbelianGroup(parts).parts, parts())
    assert ours == built_or_refused(checked_parts, parts())
