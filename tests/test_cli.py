"""CLI surface: output formats, exit codes, determinism."""

import json
import re
import sys
import time
from math import log10
from decimal import MAX_EMAX, Decimal, localcontext

import pytest

from periodindex import SUITES, bounds, cli, complexes, verify, words
from periodindex.bounds import PRIME_CEILING, decimal_string, index_bound
from periodindex.graded import GradedAbelianGroup, exponent
from periodindex.complexes import model_homology, primary_model_homology
from periodindex.verify import CheckResult
from conftest import run_cold
from words_reference import key_of, reference_words, spell


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    capsys.readouterr()
    return err.value.code


class TestBound:
    def test_pretty(self, capsys):
        code, out = run(capsys, "bound", "2", "3")
        assert code == 0
        assert "theorem_a = 8" in out

    def test_compare(self, capsys):
        code, out = run(capsys, "bound", "6", "4", "--compare")
        assert code == 0
        assert "theorem_a = 1296" in out
        assert "sharp = 1296" in out

    def test_trivial(self, capsys):
        code, out = run(capsys, "bound", "1", "5")
        assert "theorem_a = 1" in out

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "bound", "6", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == index_bound(6, 4).to_json_dict()

    @pytest.mark.parametrize("n, d, expected", [
        (4, 4, '{"comparison": {"d": 4, "n": 4, "ratio": "2", "sharp": {"source": "realized by '
               '8-dimensional examples", "value": "64"}, "sharp_improves": true, "theorem_a": '
               '"128"}, "corollary_b": false, "d": 4, "n": 4, "primes": [{"bound": "128", "p": '
               '2, "r": 2}], "sharp": {"source": "realized by 8-dimensional examples", "value": '
               '"64"}, "theorem_a": "128"}'),
        (6, 6, '{"comparison": {"d": 6, "n": 6, "ratio": null, "sharp": null, "sharp_improves": '
               'false, "theorem_a": "186624"}, "corollary_b": false, "d": 6, "n": 6, "primes": '
               '[{"bound": "256", "p": 2, "r": 1}, {"bound": "729", "p": 3, "r": 1}], "sharp": '
               'null, "theorem_a": "186624"}'),
        (3, 3, '{"comparison": {"d": 3, "n": 3, "ratio": "1", "sharp": {"source": "realized by '
               '6-dimensional examples", "value": "9"}, "sharp_improves": false, "theorem_a": '
               '"9"}, "corollary_b": true, "d": 3, "n": 3, "primes": [{"bound": "9", "p": 3, '
               '"r": 1}], "sharp": {"source": "realized by 6-dimensional examples", "value": '
               '"9"}, "theorem_a": "9"}'),
    ])
    def test_compare_json(self, capsys, n, d, expected):
        code, out = run(capsys, "bound", str(n), str(d), "--compare", "--format", "json")
        assert code == 0
        assert out == expected + "\n"

    def test_compare_json_converts_the_bound_once(self, capsys, monkeypatch):
        # the report's JSON and its comparison share the one theorem_a string
        real, calls = bounds.decimal_string, []

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(bounds, "decimal_string", counting)
        code, _ = run(capsys, "bound", "4", "4", "--compare", "--format", "json")
        assert code == 0
        assert calls == [128]

    def test_csv(self, capsys):
        code, out = run(capsys, "bound", "6", "4", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,theorem_a,corollary_b"
        assert lines[1] == "6,4,1296,false"

    @pytest.mark.parametrize("argv", [
        ("360", "3"), ("360", "3", "--compare"), ("360", "4", "--compare")])
    def test_factorises_once(self, capsys, monkeypatch, argv):
        calls = []
        real = bounds.factorize

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(bounds, "factorize", counting)
        code, _ = run(capsys, "bound", *argv)
        assert code == 0
        assert calls == [360]

    def test_usage_errors(self, capsys):
        assert run_usage_error(capsys, "bound", "0", "3") == 2
        assert run_usage_error(capsys, "bound", "3", "-1") == 2
        assert run_usage_error(capsys, "bound", "x", "3") == 2


class TestBigBound:
    """A bound past Python's 4300-digit int -> str limit prints in full."""

    @pytest.fixture
    def expected(self):
        value = index_bound(6, 20000).theorem_a_bound
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        if get_limit is None:
            return str(value)
        old = get_limit()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty-table"])
    def test_decimal_in_every_format(self, capsys, expected, fmt):
        limit_before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out = run(capsys, "bound", "6", "20000", "--format", fmt)
        assert code == 0
        assert len(expected) > 4300
        if fmt == "json":
            assert json.loads(out)["theorem_a"] == expected
        elif fmt == "csv":
            assert out.splitlines()[1].split(",")[2] == expected
        else:
            assert f"theorem_a = {expected}\n" in out
        # main lifts the limit for its own command only
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit_before

    def test_millions_of_digits_within_a_second(self, capsys):
        # 2^3999985 has 1,204,116 digits, too many for str(), which is
        # quadratic in the number of digits; check its ends independently
        start = time.perf_counter()
        code, out = run(capsys, "bound", "2", "2000000")
        elapsed = time.perf_counter() - start
        assert code == 0
        digits = out.splitlines()[-2].removeprefix("theorem_a = ")
        with localcontext(prec=30, Emax=MAX_EMAX):
            leading = str(Decimal(2) ** 3999985).replace(".", "")[:20]
        assert len(digits) == 1204116
        assert digits[:20] == leading
        assert int(digits[-18:]) == pow(2, 3999985, 10 ** 18)
        assert elapsed < 1.0

    def test_oversized_bound_refused(self, capsys):
        # up to 2^(2 * 19999999) by the estimate: over MAX_OUTPUT digits
        start = time.perf_counter()
        code = cli.main(["bound", "2", "20000000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "digits" in captured.err
        assert elapsed < 2.0


class TestLargeN:
    """Bounds whose n has prime factors far past the reach of trial division."""

    @pytest.mark.parametrize("n, primes", [
        (999999943999999559, [999999937, 1000000007]),
        (2305843009213693951, [2305843009213693951]),  # 2^61 - 1
    ])
    def test_answered_within_a_second(self, capsys, n, primes):
        start = time.perf_counter()
        code, out = run(capsys, "bound", str(n), "4", "--format", "json")
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(out)
        assert payload == index_bound(n, 4).to_json_dict()
        assert payload["primes"] == [{"p": p, "r": 1, "bound": str(p ** 3)} for p in primes]
        assert payload["theorem_a"] == str(n ** 3)
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [
        ("bound", str(PRIME_CEILING), "4"),
        ("homology", str(PRIME_CEILING), "--max-degree", "4"),
        ("homology", "--prime", str(PRIME_CEILING), "--exponent", "1", "--max-degree", "4"),
        ("words", str(PRIME_CEILING + 2), "1", "--max-degree", "4"),
    ])
    def test_past_the_ceiling_refused(self, capsys, argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert str(PRIME_CEILING) in captured.err

    @pytest.mark.parametrize("digits", [300, 20000])
    @pytest.mark.parametrize("argv, counts", [
        (("bound", "{n}", "2"), "a {digits}-digit integer: its {left}-digit part"),
        (("homology", "--prime", "{n}", "--exponent", "1", "--max-degree", "4"),
         "a {digits}-digit integer is not below"),
        (("words", "{n}", "1", "--max-degree", "4"), "a {digits}-digit integer is not below"),
    ])
    def test_long_n_refused_in_one_short_line(self, capsys, digits, argv, counts):
        # 7...7 = 7 * 1...1, so trial division leaves a shorter part, which is
        # still past the ceiling; the refusal gives digit counts, not n itself
        left = 7 * (10 ** digits - 1) // 9
        for p in range(2, 1000):
            while left % p == 0:
                left //= p
        code = cli.main([a.format(n="7" * digits) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and len(captured.err) < 200
        assert counts.format(digits=digits, left=len(decimal_string(left))) in captured.err
        assert str(PRIME_CEILING) in captured.err


HUGE = str(10 ** 400)


class TestHugeCounts:
    """Counts past the float range meet no float: they are compared exactly
    and refused before any work, not ended by an OverflowError traceback."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def work(*args):
            raise AssertionError("work started on a refused input")

        monkeypatch.setattr(cli, "index_bound", work)
        monkeypatch.setattr(words, "word_census", work)
        monkeypatch.setattr(complexes, "model_homology", work)
        monkeypatch.setattr(complexes, "_model_homology", work)
        monkeypatch.setattr(complexes, "primary_model_homology", work)

    @pytest.mark.parametrize("argv", [
        ("bound", "2", HUGE),
        ("words", "2", HUGE, "--max-degree", "3"),
        ("words", "2", "1", "--max-degree", HUGE),
        ("homology", "--prime", "2", "--exponent", HUGE, "--max-degree", "4"),
        ("homology", "--prime", "2", "--exponent", "1", "--max-degree", HUGE),
        ("homology", "6", "--max-degree", HUGE),
        # max_degree + 1 rows are listed: refused at MAX_LISTED, not built
        ("homology", "6", "--max-degree", str(cli.MAX_LISTED)),
    ])
    def test_refused_before_any_work(self, capsys, no_work, argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_bound_one_answers(self, capsys):
        code, out = run(capsys, "bound", "1", HUGE, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == f"1,{HUGE},1,true"

    def test_no_power_without_a_psi_row(self, capsys):
        # below degree 2 no word prints psi_{p^r}, so a huge r lists nothing
        assert run(capsys, "words", "2", HUGE, "--max-degree", "1", "--format", "json") \
            == (0, "[]\n")


class TestBigN:
    """An n past Python's 4300-digit int-string limit is read, not refused
    by the parser, and main leaves the limit as it found it."""

    def test_read_and_printed(self, capsys):
        limit_before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        n = decimal_string(2 ** 16610)  # 5001 digits
        code, out = run(capsys, "bound", n, "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == n
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit_before
        assert run_usage_error(capsys, "bound", n, "x") == 2
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit_before


class TestTable:
    def test_csv_cells(self, capsys):
        code, out = run(capsys, "table", "--n-max", "4", "--d-max", "4",
                        "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,theorem_a"
        assert "4,4,128" in lines
        assert "2,3,8" in lines

    def test_single_cell(self, capsys):
        code, out = run(capsys, "table", "--n-max", "1", "--d-max", "1",
                        "--format", "csv")
        assert out.strip().splitlines() == ["n,d,theorem_a", "1,1,1"]

    def test_json(self, capsys):
        code, out = run(capsys, "table", "--n-max", "2", "--d-max", "3",
                        "--format", "json")
        cells = json.loads(out)
        assert {"n": 2, "d": 3, "theorem_a": "8"} in cells
        assert len(cells) == 6

    def test_pretty_grid(self, capsys):
        code, out = run(capsys, "table", "--n-max", "2", "--d-max", "2")
        assert "n\\d" in out

    def test_usage_error(self, capsys):
        assert run_usage_error(capsys, "table", "--n-max", "0", "--d-max", "2") == 2

    def test_each_n_factorised_once_and_no_report_built(self, capsys, monkeypatch):
        # a row is one factorisation and the product index_bound forms, per d
        seen = []
        monkeypatch.setattr(cli, "factorize", lambda n: seen.append(n) or bounds.factorize(n))
        monkeypatch.setattr(cli, "index_bound", None)
        code, out = run(capsys, "table", "--n-max", "30", "--d-max", "5", "--format", "csv")
        assert code == 0 and seen == list(range(1, 31))
        assert out.splitlines()[1:] == [f"{n},{d},{index_bound(n, d).theorem_a_bound}"
                                        for n in range(1, 31) for d in range(1, 6)]

    @pytest.mark.parametrize("argv", [
        ("--n-max", "300", "--d-max", "300"),    # about 2.7e7 digits
        ("--n-max", "2000", "--d-max", "1000"),  # 2e6 cells
    ])
    def test_oversized_grid_refused(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "factorize", None)  # refused before any row
        start = time.perf_counter()
        code = cli.main(["table", *argv])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err and "digits" in captured.err
        assert elapsed < 1.0


class TestHomology:
    def test_prime_power(self, capsys):
        code, out = run(capsys, "homology", "--prime", "2", "--exponent", "1",
                        "--max-degree", "6")
        assert code == 0
        lines = [line.split() for line in out.splitlines() if line and line[0].isdigit()]
        by_degree = {line[0]: line[1:] for line in lines}
        assert by_degree["4"] == ["Z/4", "4"]
        assert by_degree["6"] == ["Z/6", "6"]

    def test_composite_json_round_trip(self, capsys):
        code, out = run(capsys, "homology", "6", "--max-degree", "2",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == model_homology(6, 2).to_json()
        assert payload["2"] == {"free": 0, "torsion": ["6"]}

    def test_composite_factorised_once(self, capsys, monkeypatch):
        # the count-first check and the model share one factorisation of n
        expected = model_homology(360, 12).to_json()
        calls, real = [], bounds.factorize

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(cli, "factorize", counting)
        monkeypatch.setattr(complexes, "factorize", counting)
        code, out = run(capsys, "homology", "360", "--max-degree", "12", "--format", "json")
        assert code == 0
        assert json.loads(out) == expected
        assert calls == [360]

    def test_degree_zero_only(self, capsys):
        code, out = run(capsys, "homology", "--prime", "3", "--exponent", "1",
                        "--max-degree", "0", "--format", "json")
        assert json.loads(out) == {"0": {"free": 1, "torsion": []}}

    def test_csv(self, capsys):
        code, out = run(capsys, "homology", "6", "--max-degree", "2",
                        "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "degree,free,exponent,torsion"
        assert lines[3] == "2,0,6,6"

    def test_both_or_neither_rejected(self, capsys):
        assert run_usage_error(capsys, "homology", "--max-degree", "3") == 2
        assert run_usage_error(capsys, "homology", "6", "--prime", "2",
                               "--exponent", "1", "--max-degree", "3") == 2
        assert run_usage_error(capsys, "homology", "--prime", "2",
                               "--max-degree", "3") == 2

    def test_nonprime_rejected(self, capsys):
        assert run_usage_error(capsys, "homology", "--prime", "4",
                               "--exponent", "1", "--max-degree", "3") == 2

    @pytest.mark.parametrize("argv", [
        ("--prime", "2", "--exponent", "1", "--max-degree", "1000"),  # 2.9e10 summands
        ("360", "--max-degree", "200"),                               # 1.95e8 summands
    ])
    def test_oversized_listing_refused(self, capsys, argv):
        start = time.perf_counter()
        code = cli.main(["homology", *argv])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err and "summands" in captured.err
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv, cap", [
        (("--prime", "2", "--exponent", "1"), 16000), (("2",), 16000), (("6",), 16000),
        (("30",), 16000),
        # caps that pass the digit estimates in JSON: counted to the full cap,
        # the listings took 25 s and 15 s to build before they were refused
        (("--prime", "2", "--exponent", "1", "--format", "json"), 999999),
        (("3426", "--format", "json"), 910167),
        # two primes near 10^6: almost every summand is a cross term of both,
        # which took 1.5 s and 100 s to build before they were refused
        (("1000036000099",), 20000), (("1000036000099", "--format", "json"), 200000)])
    def test_deep_listing_refused_cold_within_a_second(self, argv, cap):
        # a cold process, as a user runs it: the whole listing is built and
        # counted to degrees 64, 256, 1024, ..., each a prefix of the next,
        # and refused at the first degree where it holds over 10^6 summands
        start = time.perf_counter()
        done = run_cold(["-m", "periodindex.cli", "homology", *argv, "--max-degree", str(cap)],
                        timeout=10)
        elapsed = time.perf_counter() - start
        assert done.returncode == 2 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and "summands" in done.stderr
        assert "Traceback" not in done.stderr
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [
        # over 9e6 digits in degrees 2, 4, 6: refused before the model is built
        ("--prime", "2", "--exponent", "10000000", "--max-degree", "6"),
        # nothing to list, but the model's twist 3^r alone has 4.8e7 digits
        ("--prime", "3", "--exponent", "100000000", "--max-degree", "1"),
        # 1200 orders of about 4200 digits each: refused before the model is built
        (str(997 ** 1400), "--max-degree", "2400"),
        # 2000 orders of over 4214 digits: the n route's estimate, before any build
        (str(2 ** 14000), "--max-degree", "4000", "--format", "csv"),
        # 499,999 orders Z/(999983 k), the k alone with log10(499999!) digits:
        # over 5.6e6 digits in all, refused before the model is built
        ("--prime", "999983", "--exponent", "1", "--max-degree", "999999"),
        ("999983", "--max-degree", "999999", "--format", "csv"),
    ])
    def test_oversized_digits_refused(self, capsys, argv):
        start = time.perf_counter()
        code = cli.main(["homology", *argv])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err and "digits" in captured.err
        assert elapsed < 1.0

    @pytest.mark.parametrize("fmt", ["pretty-table", "csv", "json"])
    def test_exponent_digits_count_against_the_limit(self, capsys, monkeypatch, fmt):
        # degrees 2 and 4 hold Z/2^1000 and Z/2^1001, 302 digits each: 604
        # torsion digits, and the pretty and csv listings print each degree's
        # exponent too, 1208 digits in all; JSON prints no exponents
        monkeypatch.setattr(cli, "MAX_OUTPUT", 1000)
        code = cli.main(["homology", "--prime", "2", "--exponent", "1000",
                         "--max-degree", "4", "--format", fmt])
        captured = capsys.readouterr()
        if fmt == "json":
            assert code == 0 and len(captured.out) < 1000
        else:
            assert code == 2 and captured.out == ""
            assert len(captured.err.splitlines()) == 1 and "exponents" in captured.err
        monkeypatch.setattr(cli, "MAX_OUTPUT", 1300)
        code = cli.main(["homology", "--prime", "2", "--exponent", "1000",
                         "--max-degree", "4", "--format", fmt])
        captured = capsys.readouterr()
        if fmt == "pretty-table":  # every row padded to the 305-character group cells
            assert code == 2 and "padded table would write 3122 characters" in captured.err
        else:
            assert code == 0 and (1208 < len(captured.out) or fmt == "json")

    def test_exponent_bounds_refuse_without_an_lcm(self, capsys, monkeypatch):
        # one order per degree: the largest order's digits already pass the
        # limit, so the listing is refused before any order is converted
        def no_listing(group):
            raise AssertionError("orders converted for a refused listing")

        monkeypatch.setattr(cli, "MAX_OUTPUT", 1000)
        monkeypatch.setattr(GradedAbelianGroup, "to_json", no_listing)
        assert cli.main(["homology", "--prime", "2", "--exponent", "1000",
                         "--max-degree", "4", "--format", "csv"]) == 2
        assert "exponents" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("homology", "--prime", "2", "--exponent", "3", "--max-degree", "30"),
        ("homology", "360", "--max-degree", "24"), ("homology", "6", "--max-degree", "0"),
        # `_emit` counts every pretty table, not only the homology listing
        ("table", "--n-max", "12", "--d-max", "7"), ("words", "3", "2", "--max-degree", "14")])
    def test_padded_table_counted_to_the_character(self, capsys, monkeypatch, argv):
        # the guard counts what the table writes, padding included: the limit
        # at its length passes, one character less refuses on one line
        code, out = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(cli, "MAX_OUTPUT", len(out))
        assert run(capsys, *argv) == (0, out)
        monkeypatch.setattr(cli, "MAX_OUTPUT", len(out) - 1)
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"padded table would write {len(out)} characters" in captured.err

    def test_padded_table_refused_where_csv_and_json_pass(self, capsys):
        # 6.8e5 torsion digits, but each row padded to the widest group cell
        # would make a 29 MB table; csv and JSON write 2.0 and 4.5 MB
        argv = ("homology", "--prime", "2", "--exponent", "5000", "--max-degree", "200")
        assert cli.main(list(argv)) == 2
        assert "29275329 characters" in capsys.readouterr().err
        for fmt, size in (("csv", 2047310), ("json", 4518488)):
            code, out = run(capsys, *argv, "--format", fmt)
            assert (code, len(out)) == (0, size)

    @pytest.mark.parametrize("argv, fmt", [
        # 2^20000 k has over 6000 digits, past str's default limit of 4300
        *(pytest.param(("--prime", "2", "--exponent", "20000", "--max-degree", "6"), fmt,
                       id=fmt) for fmt in ("csv", "json", "pretty-table")),
        # composite: every degree merged into invariant factors
        *(pytest.param(("30", "--max-degree", "24"), fmt, id=f"30-{fmt}")
          for fmt in ("csv", "json", "pretty-table")),
    ])
    def test_long_orders_print_as_str_does(self, capsys, argv, fmt):
        cap = int(argv[-1])
        group = (primary_model_homology(2, 20000, cap) if argv[0] == "--prime"
                 else model_homology(int(argv[0]), cap))
        degrees = range(cap + 1)
        code, out = run(capsys, "homology", *argv, "--format", fmt)
        assert code == 0
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if fmt == "json":
                assert json.loads(out) == {
                    str(d): {"free": group.summands(d)[0],
                             "torsion": list(map(str, group.summands(d)[1]))}
                    for d in degrees}
            elif fmt == "csv":
                assert out.splitlines()[1:] == [
                    f"{d},{group.summands(d)[0]},{exponent(group, d)[0]},"
                    + "+".join(map(str, group.summands(d)[1])) for d in degrees]
            else:  # columns padded apart by two spaces or more; a group cell has single spaces
                assert [re.split(" {2,}", line) for line in out.splitlines()[2:]] == [
                    [str(d), group.describe(d), str(exponent(group, d)[0])] for d in degrees]
        finally:
            sys.set_int_max_str_digits(old_limit)

    def test_million_digit_orders_listed_quickly(self, capsys):
        r = 10 ** 6
        start = time.perf_counter()
        code, out = run(capsys, "homology", "--prime", "2", "--exponent", str(r),
                        "--max-degree", "6", "--format", "csv")
        elapsed = time.perf_counter() - start
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for k in (1, 2, 3):  # degree 2k is Z/(2^r k) alone: check its length and last digits
            degree, free, exp, torsion = rows[2 * k]
            assert (degree, free, torsion) == (str(2 * k), "0", exp)
            assert len(exp) == int(r * log10(2) + log10(k)) + 1
            assert int(exp[-40:]) == k * pow(2, r, 10 ** 40) % 10 ** 40
        assert elapsed < 2.0


class TestWords:
    def test_census_members(self, capsys):
        code, out = run(capsys, "words", "2", "1", "--max-degree", "3")
        for w in ("σσ", "σφ_2", "σψ_2"):
            assert w in out

    def test_empty_listing(self, capsys):
        code, out = run(capsys, "words", "2", "1", "--max-degree", "1")
        assert code == 0
        data_lines = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert data_lines == []

    def test_degree_seven_word(self, capsys):
        code, out = run(capsys, "words", "3", "1", "--max-degree", "7")
        assert "σγ_3φ_3" in out

    def test_ascii(self, capsys):
        code, out = run(capsys, "words", "3", "1", "--max-degree", "7", "--ascii")
        assert "sg_3f_3" in out
        assert "σ" not in out

    def test_json(self, capsys):
        code, out = run(capsys, "words", "2", "1", "--max-degree", "3",
                        "--format", "json")
        rows = json.loads(out)
        assert {"word": "σφ_2", "degree": 3, "height": 2} in rows

    def test_nonprime_rejected(self, capsys):
        assert run_usage_error(capsys, "words", "4", "1", "--max-degree", "3") == 2

    def test_oversized_listing_refused(self, capsys):
        start = time.perf_counter()
        code = cli.main(["words", "2", "1", "--max-degree", "200"])  # 7,282,026 rows
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err and "rows" in captured.err
        assert elapsed < 1.0

    def test_oversized_letter_count_refused(self, capsys):
        # 59,996 rows, within the row limit, but about 6.0e8 letters
        start = time.perf_counter()
        code = cli.main(["words", "1000003", "1", "--max-degree", "20000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err and "letters" in captured.err
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [
        ("999983", "20000", "--max-degree", "1000"),  # 999 psi rows of 120,000 digits
        ("2", "100000000", "--max-degree", "2"),      # one psi row of 3.0e7 digits
    ])
    def test_oversized_psi_digits_refused(self, capsys, argv):
        start = time.perf_counter()
        code = cli.main(["words", *argv])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err and "digits" in captured.err
        assert elapsed < 1.0

    def test_long_psi_subscript_prints_as_str_does(self, capsys):
        code, out = run(capsys, "words", "2", "20000", "--max-degree", "3", "--format", "csv")
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            subscript = str(2 ** 20000)
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert code == 0
        assert out.splitlines()[1:] == [f"2,1,ψ_{subscript}", "2,2,σσ", "3,2,σφ_2",
                                        f"3,2,σψ_{subscript}", "3,3,σσσ"]


class TestEmitJson:
    """`_emit` encodes JSON column by column; its bytes must be those of
    ``json.dumps`` over one object per row."""

    WORDS = [("σσ", 2, 2), ("ψ_2", 2, 1), ("γ_3φ_3", 8, 1), ('a"b\\c\x01', 3, 4)]

    @pytest.mark.parametrize("headers, rows", [
        (["word", "degree", "height"], WORDS),
        (["word", "degree", "height"], WORDS * 1500),  # crosses the 4096-row chunks
        (["word", "degree", "height"], []),
        (["n", "d", "theorem_a"], [(n, d, str(index_bound(n, d).theorem_a_bound))
                                   for n in range(1, 40) for d in range(1, 12)]),
        (["n", "d", "theorem_a", "corollary_b", "sharp", "ratio"],
         [("12", "5", "5971968", "false", "", "")]),
        (["n", "d", "theorem_a"], []),
    ])
    def test_bytes_equal_json_dumps(self, capsys, headers, rows):
        assert cli._emit("words", "json", headers, iter(rows)) == 0
        out = capsys.readouterr().out
        assert out == json.dumps([dict(zip(headers, row)) for row in rows]) + "\n"


def library_rendering(fmt, rows):
    """What `words` prints for (degree, height, word) rows, built like the
    listing was rendered before the CLI rendered from keys."""
    if fmt == "json":
        return json.dumps([{"word": w, "degree": d, "height": h} for d, h, w in rows]) + "\n"
    cells = [("degree", "height", "word")] + [(str(d), str(h), w) for d, h, w in rows]
    if fmt == "csv":
        return "\n".join(map(",".join, cells)) + "\n"
    widths = [max(len(row[i]) for row in cells) for i in range(3)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def parse_words(fmt, out):
    if fmt == "json":
        return [(row["degree"], row["height"], row["word"]) for row in json.loads(out)]
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == "degree,height,word"
        return [(int(d), int(h), w) for d, h, w in (line.split(",") for line in lines[1:])]
    assert lines[0].split() == ["degree", "height", "word"] and set(lines[1]) == {"-", " "}
    return [(int(d), int(h), w) for d, h, w in map(str.split, lines[2:])]


class TestWordsAgainstLibrary:
    """`words` renders its rows from keys; they must be the reference words,
    spelled, on the reference domain, in every format."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_rows_and_bytes(self, capsys, p, r):
        reference = reference_words(p, r, 40)
        # (degree, height, kinds) strictly increasing: sorted, no duplicates
        keys = [(d, h, key_of(w)) for w, d, h in reference]
        assert keys == sorted(set(keys))
        for cap in range(41):
            listing = [row for row in reference if row[1] <= cap]
            for ascii_flag in ([], ["--ascii"]):
                rows = [(d, h, spell(w, bool(ascii_flag))) for w, d, h in listing]
                for fmt in cli.FORMATS:
                    argv = ["words", str(p), str(r), "--max-degree", str(cap), "--format", fmt,
                            *ascii_flag]
                    code, out = run(capsys, *argv)
                    assert code == 0, argv
                    assert parse_words(fmt, out) == rows, argv
                    assert out == library_rendering(fmt, rows), argv


class TestVerify:
    def test_snf_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "snf", "--seed", "7")
        assert code == 0
        assert "100/100 checks passed" in out
        assert "FAIL" not in out

    def test_seed_determinism(self, capsys):
        _, first = run(capsys, "verify", "--suite", "snf", "--seed", "3")
        _, second = run(capsys, "verify", "--suite", "snf", "--seed", "3")
        assert first == second

    def test_elementary_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "elementary")
        assert code == 0

    def test_all_suites_pass(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert "suite all" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", "nope"])
        capsys.readouterr()
        assert err.value.code == 2

    @pytest.mark.parametrize("suite, closed_side, degree", [
        pytest.param("elementary", "closed_form_homology", 4,
                     id="elementary-closed_form_homology"),
        pytest.param("xp-exponent", "primary_model_homology", 4,
                     id="xp-exponent-primary_model_homology"),
        pytest.param("composite", "model_homology", 4, id="composite-model_homology"),
        # an odd degree holds only the Tor terms' Z/p summands and no exponent
        pytest.param("xp-exponent", "primary_model_homology", 3,
                     id="xp-exponent-primary_model_homology-odd"),
    ])
    def test_route_suite_catches_a_disagreement(self, capsys, monkeypatch, suite, closed_side,
                                                degree):
        # the closed-form route made wrong in one degree only, by one more Z:
        # the suite names that degree and the command fails
        real = getattr(verify, closed_side)

        def wrong_in_one_degree(*args):
            parts = list(real(*args).parts)
            free, torsion = parts[degree]
            parts[degree] = free + 1, torsion
            return GradedAbelianGroup(tuple(parts))

        monkeypatch.setattr(verify, closed_side, wrong_in_one_degree)
        failed = [res for res in verify.run_suite(suite) if not res.passed]
        assert failed
        assert all(res.detail.startswith(f"degree {degree}: SNF ") for res in failed)
        code, out = run(capsys, "verify", "--suite", suite)
        assert code == 1
        assert f"FAIL  {failed[0].name}: {failed[0].detail}" in out.splitlines()

    def test_passing_checks_list_no_summand(self, monkeypatch):
        # the routes are compared as (order, multiplicity) counts: summands
        # are listed only to write a failure, and every check here passes
        def no_listing(*args):
            raise AssertionError("summands listed for a passing check")

        monkeypatch.setattr(verify, "homology_of_complex", no_listing)
        monkeypatch.setattr(GradedAbelianGroup, "summands", no_listing)
        results = verify.run_suite("all")
        assert len(results) == 244 and all(res.passed for res in results)

    def test_suite_table_is_suites(self):
        # SUITES, which the CLI reads without loading verify, names exactly
        # the suites run_suite runs, and "all" runs them in that order
        assert set(verify._RUNNERS) == set(SUITES)
        names = [res.name.split()[0] for res in verify.run_suite("all")]
        assert list(dict.fromkeys(names)) == list(SUITES)

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(  # _cmd_verify imports run_suite when it runs
            verify, "run_suite",
            lambda name, seed=0: [CheckResult("forced", False, "boom")])
        code, out = run(capsys, "verify", "--suite", "snf")
        assert code == 1
        assert "FAIL" in out


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("bound", "12", "5", "--compare", "--format", "json"),
        ("table", "--n-max", "6", "--d-max", "4", "--format", "csv"),
        ("homology", "12", "--max-degree", "8", "--format", "json"),
        ("words", "2", "1", "--max-degree", "10", "--format", "csv"),
    ])
    def test_repeat_runs_identical(self, capsys, argv):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_no_ansi_when_not_a_tty(self, capsys):
        _, out = run(capsys, "verify", "--suite", "elementary")
        assert "\033[" not in out
