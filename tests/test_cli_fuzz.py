"""CLI fuzz test: `bound` and `words` on zero, negative, composite, prime
and past-the-ceiling integers either answer (exit 0) or refuse (exit 2),
never with a traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from periodindex import cli
from periodindex.bounds import PRIME_CEILING

INTEGERS = st.one_of(
    st.integers(-10, 60),
    st.sampled_from([0, -1, 4, 91, 2 ** 61 - 1, 999999943999999559,
                     PRIME_CEILING - 168, PRIME_CEILING - 1, PRIME_CEILING,
                     PRIME_CEILING + 2, 6 * 2 ** 100, 10 ** 40 + 1]),
    st.integers(-2 ** 90, 2 ** 90),
)
SMALL = st.integers(-3, 12)
FORMATS = st.sampled_from(cli.FORMATS)


@st.composite
def argvs(draw):
    fmt = ["--format", draw(FORMATS)]
    if draw(st.booleans()):
        return ["bound", str(draw(INTEGERS)), str(draw(SMALL)), *fmt]
    ascii_flag = ["--ascii"] if draw(st.booleans()) else []
    return ["words", str(draw(INTEGERS)), str(draw(SMALL)),
            "--max-degree", str(draw(st.integers(-3, 24))), *fmt, *ascii_flag]


@settings(max_examples=50, deadline=None, database=None)
@given(argvs())
def test_answer_or_refusal(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue()
