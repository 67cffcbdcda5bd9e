"""CLI fuzz test: `bound`, `table`, `words`, `homology n` and `homology
--prime --exponent` on zero, negative, composite, prime, past-the-ceiling
and past-the-float-range integers either answer (exit 0) or refuse (exit
2), never with a traceback.  Sizes are drawn either small or past the
output guards, so every example answers or refuses well within a second.
A `homology` input refused before its group is built has that group's
listing over the digit limit, as the build loop's guards count it."""

import io
from contextlib import redirect_stderr, redirect_stdout
from math import log10
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from periodindex import cli, complexes
from periodindex.bounds import PRIME_CEILING, decimal_string

# past the float range, so no count may meet a float; 2^16610 has 5001
# digits, past Python's int-string limit (decimal_string prints it anyway)
HUGE = st.one_of(st.integers(10 ** 300, 10 ** 400), st.just(2 ** 16610))
INTEGERS = st.one_of(
    st.integers(-10, 60),
    st.sampled_from([0, -1, 4, 91, 2 ** 61 - 1, 999999943999999559,
                     PRIME_CEILING - 168, PRIME_CEILING - 1, PRIME_CEILING,
                     PRIME_CEILING + 2, 6 * 2 ** 100, 10 ** 40 + 1]),
    st.integers(-2 ** 90, 2 ** 90),
    HUGE,
)
SMALL = st.integers(-3, 12)
# a huge d or --max-degree is over the digit or row limit, except in `bound 1 d`
SIZES = st.one_of(SMALL, HUGE)
FORMATS = st.sampled_from(cli.FORMATS)
# a 300 x 300 grid is over the digit limit; a side over MAX_LISTED, over the cell limit
GRID_SIDES = st.one_of(st.integers(-3, 40), st.just(300),
                       st.integers(cli.MAX_LISTED + 1, 10 ** 7))
# primes near 10^6 have few rows but quadratically many letters (the sigma^k words)
WORD_PRIMES = st.one_of(INTEGERS, st.sampled_from([999983, 1000003]),
                        st.integers(999_900, 1_000_100))
# from degree 4000 on, the auxiliary family alone (8e6 letters) is over the letter limit
WORD_DEGREES = st.one_of(st.integers(-3, 24), st.integers(4000, 10 ** 5))
# from r = 2e7 on, p^r has over 6e6 digits: over the digit limit in any one psi_{p^r}
# or homology order, and refused before p^r is formed
EXPONENTS = st.one_of(SMALL, st.integers(2 * 10 ** 7, 10 ** 8), HUGE)


@st.composite
def argvs(draw):
    fmt = ["--format", draw(FORMATS)]
    command = draw(st.sampled_from(["bound", "table", "words", "homology", "homology n"]))

    def arg(strategy):
        return decimal_string(draw(strategy))

    if command == "bound":
        return ["bound", arg(INTEGERS), arg(SIZES), *fmt]
    if command == "table":
        return ["table", "--n-max", arg(GRID_SIDES), "--d-max", arg(GRID_SIDES), *fmt]
    if command == "homology":
        return ["homology", "--prime", arg(WORD_PRIMES), "--exponent",
                arg(EXPONENTS), "--max-degree", arg(SIZES), *fmt]
    if command == "homology n":
        return ["homology", arg(INTEGERS), "--max-degree", arg(SIZES), *fmt]
    ascii_flag = ["--ascii"] if draw(st.booleans()) else []
    return ["words", arg(WORD_PRIMES), arg(EXPONENTS),
            "--max-degree", arg(st.one_of(WORD_DEGREES, HUGE)), *fmt, *ascii_flag]


@settings(max_examples=100, deadline=None, database=None)
@given(argvs())
def test_answer_or_refusal(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors, from the parser or a handler
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue()


class Built(Exception):
    """Raised in place of building a model: the input passed the pre-build guard."""


def built(*args):
    raise Built


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 50)),
                 st.tuples(st.sampled_from([6, 10, 12, 30, 36, 60]), st.none())),
       st.integers(0, 12), FORMATS, st.integers(1, 600))
# Z/2^50 alone in degree 2, 15.4 digits: printed twice but in JSON
@example(order=(2, 50), cap=2, fmt="json", limit=20)
@example(order=(2, 50), cap=2, fmt="csv", limit=30)
def test_refused_before_the_build_only_when_over_the_limit(order, cap, fmt, limit):
    n, r = order
    argv = ["homology", *(["--prime", str(n), "--exponent", str(r)] if r else [str(n)]),
            "--max-degree", str(cap), "--format", fmt]
    with (mock.patch.object(cli, "MAX_OUTPUT", limit),
          mock.patch.object(complexes, "primary_model_homology", built),
          mock.patch.object(complexes, "model_homology", built),
          mock.patch.object(complexes, "_model_homology", built),
          redirect_stderr(io.StringIO())):
        try:
            assert cli.main(argv) == 2
        except Built:
            return
    if cap < 2:  # no torsion to list: the refusal counts p^r (or n), which the model is built on
        assert (r or 1) * log10(n) > limit
        return
    # the digits the build loop's guards count: every torsion order, and
    # in pretty and csv each degree's exponent, its largest order, once more
    group = (complexes.primary_model_homology(n, r, cap) if r
             else complexes.model_homology(n, cap))
    bits = sum(m * t.bit_length() for _, pairs in group.parts for t, m in pairs)
    if fmt != "json":
        bits += sum(pairs[-1][0].bit_length() for _, pairs in group.parts if pairs)
    assert log10(2) * bits > limit
