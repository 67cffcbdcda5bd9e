"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them even on success) and enforces the stated wall-clock budget.
"""

import random
import time
from math import factorial, gcd, log10

from periodindex.bounds import index_bound
from periodindex.complexes import model_homology, primary_model_homology
from periodindex.graded import exponent
from periodindex.verify import suite_elementary, suite_snf, suite_xp_exponent
from periodindex.words import enumerate_words, format_word
from conftest import run_cold
from words_reference import Word, gamma, phi, psi, sigma, spell


class _Timed:
    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"{status}  {self.label}  ({elapsed:.2f}s, budget {self.budget:g}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"{self.label} took {elapsed:.2f}s, budget {self.budget:g}s"
        return False


def e_p(p, n):
    return p if n % p == 0 else 1


def test_criterion_1_spot_values():
    with _Timed("criterion 1: bound spot values (d=3 example, d=4 formula)", 1.0):
        assert index_bound(2, 3).theorem_a_bound == 8
        for n in range(1, 61):
            assert index_bound(n, 4).theorem_a_bound == e_p(2, n) * e_p(3, n) * n ** 3


def test_criterion_2_coprime_property():
    with _Timed("criterion 2: coprime case equals n^(d-1)", 1.0):
        for n in range(1, 101):
            for d in range(1, 9):
                if gcd(n, factorial(d - 1)) == 1:
                    assert index_bound(n, d).theorem_a_bound == n ** (d - 1)


def test_criterion_3_sharp_comparison():
    with _Timed("criterion 3: sharp d=4 value improves on the general bound", 1.0):
        c = index_bound(4, 4)
        assert c.theorem_a_bound == 128
        assert c.known_sharp.value == 64
        assert c.ratio == 2 and c.sharp_improves


def test_criterion_4_elementary_oracle_equivalence():
    with _Timed("criterion 4: closed forms == SNF oracle (elementary complexes)", 10.0):
        results = suite_elementary()
        failures = [r for r in results if not r.passed]
        assert not failures, failures


def test_criterion_5_exponent_law_both_routes():
    with _Timed("criterion 5: model exponent law, Kunneth and SNF routes", 60.0):
        results = suite_xp_exponent(max_k=12)
        failures = [r for r in results if not r.passed]
        assert not failures, failures


def test_criterion_6_multiplicativity():
    with _Timed("criterion 6: multiplicativity over coprime periods", 1.0):
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            n1, n2 = rng.randint(1, 50), rng.randint(1, 50)
            if gcd(n1, n2) != 1:
                continue
            d = rng.randint(1, 8)
            checked += 1
            assert index_bound(n1 * n2, d).theorem_a_bound == \
                index_bound(n1, d).theorem_a_bound * index_bound(n2, d).theorem_a_bound


def test_criterion_7_word_census():
    with _Timed("criterion 7: height-2 word census for p in {2, 3, 5}", 1.0):
        for p in (2, 3, 5):
            cap = 2 + 2 * p ** 2
            expected = {Word((sigma(), sigma())): 2,
                        Word((sigma(), psi(p, 1))): 3}
            k = 0
            while 1 + 2 * p ** k <= cap:
                expected[Word((sigma(),) + (gamma(p),) * k + (phi(p),))] = 1 + 2 * p ** k
                k += 1
            k = 0
            while 2 + 2 * p ** (k + 1) <= cap:
                expected[Word((phi(p),) + (gamma(p),) * k + (phi(p),))] = \
                    2 + 2 * p ** (k + 1)
                k += 1
            got = {w: d for w, d, h in enumerate_words(p, 1, cap) if h == 2}
            assert got == {spell(w): d for w, d in expected.items()}


def test_criterion_8_snf_property_suite():
    with _Timed("criterion 8: SNF divisibility, unimodularity, determinants", 5.0):
        results = suite_snf(seed=2024)
        failures = [r for r in results if not r.passed]
        assert not failures, failures


def test_criterion_9_kunneth_frontier_composite():
    with _Timed("criterion 9: model_homology(360, 200) with every exponent", 2.0):
        h = model_homology(360, 200)
        exponents = [exponent(h, d)[0] for d in range(201)]
    # each p-primary model keeps its Z/(p^r k) in degree 2k, so 360k divides
    assert all(exponents[2 * k] % (360 * k) == 0 for k in range(1, 101))


def test_criterion_10_kunneth_frontier_deep_prime_power():
    with _Timed("criterion 10: primary_model_homology(2, 1, 1000) with every exponent", 2.0):
        h = primary_model_homology(2, 1, 1000)
        exponents = [exponent(h, d)[0] for d in range(1001)]
    assert all(exponents[2 * k] == 2 * k for k in range(1, 501))


def test_criterion_11_oracle_frontier():
    with _Timed("criterion 11: SNF oracle exponent law to k = 40", 5.0):
        results = suite_xp_exponent(max_k=40)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_criterion_12_words_frontier():
    with _Timed("criterion 12: enumerate_words(2, 1, 80), keys rendered in bulk, "
                "and every row's ascii spelling", 2.0):
        listing = enumerate_words(2, 1, 80)
        spelled = [format_word(w, ascii_symbols=True) for w, _, _ in listing]
    assert len(listing) == len(spelled) == 70722
    assert listing[0][0] == "ψ_2" and listing[-1][0] == "σ" * 80
    assert spelled[0] == "y_2" and spelled[-1] == "s" * 80


def test_criterion_13_oracle_frontier_k60():
    with _Timed("criterion 13: SNF oracle exponent law to k = 60", 5.0):
        results = suite_xp_exponent(max_k=60)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_criterion_14_words_frontier_cold_cli():
    argv = ["-m", "periodindex.cli", "words", "2", "1", "--max-degree", "80", "--format", "csv"]
    with _Timed("criterion 14: cold `periodindex words 2 1 --max-degree 80 --format csv`", 1.2):
        done = run_cold(argv, text=False, check=True, timeout=12, PYTHONIOENCODING="utf-8")
    lines = done.stdout.decode().splitlines()
    assert len(lines) == 1 + 70722
    assert lines[1] == "2,1,ψ_2" and lines[-1] == "80,80," + "σ" * 80


# Run in a fresh interpreter: the modules a `periodindex <argv>` process loads
# beyond those the interpreter had already loaded at start-up.
_LOADED_BY = """
import os, sys
before = set(sys.modules)
from periodindex import cli
sys.stdout = open(os.devnull, "w")
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
sys.stdout = sys.__stdout__
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_criterion_15_import_set():
    # module sets, not times: a cold process loads only what its subcommand runs
    argvs = {"version": ["--version"],
             "bound": ["bound", "360", "4", "--compare", "--format", "json"],
             "bound csv": ["bound", "6", "4", "--format=csv"],
             "table": ["table", "--n-max", "6", "--d-max", "4"],
             "words": ["words", "2", "1", "--max-degree", "10"],
             "homology": ["homology", "12", "--max-degree", "8"],
             "homology p^r": ["homology", "--prime", "2", "--exponent", "1", "--max-degree", "8"],
             "verify": ["verify", "--suite", "snf"]}
    loaded = {name: set(run_cold(["-c", _LOADED_BY, *argv], check=True,
                                 timeout=10).stdout.split()) for name, argv in argvs.items()}
    failures = []
    for name, modules in loaded.items():
        package = {m for m in modules if m.startswith("periodindex.")}
        if {"dataclasses", "inspect"} & modules:
            failures.append(f"{name} loaded {sorted({'dataclasses', 'inspect'} & modules)}")
        # a plain line is read without argparse, which only -h and usage errors load
        if {"argparse", "gettext", "locale"} & modules:
            failures.append(f"{name} loaded {sorted({'argparse', 'gettext', 'locale'} & modules)}")
        if name in ("version", "bound", "bound csv", "table") and package - {
                "periodindex.cli", "periodindex.bounds"}:
            failures.append(f"{name} loaded {sorted(package)}")
        if name in ("version", "bound csv", "table") and {"json", "decimal", "fractions"} & modules:
            failures.append(f"{name} loaded {sorted({'json', 'decimal', 'fractions'} & modules)}")
    words = {f"periodindex.{m}" for m in ("complexes", "snf", "graded", "verify")}
    if words & loaded["words"]:
        failures.append(f"words loaded {sorted(words & loaded['words'])}")
    closed_forms = {f"periodindex.{m}" for m in ("cli", "bounds", "graded", "complexes", "packing")}
    for name in ("homology", "homology p^r"):
        homology = {m for m in loaded[name] if m.startswith("periodindex.")}
        if homology != closed_forms:  # the closed forms run neither the checks nor the SNF oracle
            failures.append(f"{name} loaded {sorted(homology)}, not {sorted(closed_forms)}")
    print(f"{'FAIL' if failures else 'PASS'}  criterion 15: a cold process loads only what "
          f"its subcommand runs")
    assert not failures, failures
    assert "periodindex.bounds" in loaded["bound"] and "periodindex.words" in loaded["words"]


def test_criterion_16_oracle_frontier_k120():
    with _Timed("criterion 16: SNF oracle exponent law to k = 120", 5.0):
        results = suite_xp_exponent(max_k=120)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


# Run in a fresh interpreter, so that the peak RSS is the suite's own:
# (failed checks, checks, ru_maxrss in KiB, as Linux reports it) for the
# max_k given as the first argument.
_XP_EXPONENT_COLD = """
import resource, sys
from periodindex.verify import suite_xp_exponent
results = suite_xp_exponent(max_k=int(sys.argv[1]))
print(sum(not r.passed for r in results), len(results),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _xp_exponent_cold(max_k):
    done = run_cold(["-c", _XP_EXPONENT_COLD, str(max_k)], check=True, timeout=100)
    return tuple(map(int, done.stdout.split()))


def test_criterion_17_oracle_frontier_k170_memory():
    with _Timed("criterion 17: SNF oracle exponent law to k = 170, cold, under 100 MiB", 10.0):
        failed, checked, peak_kib = _xp_exponent_cold(170)
    print(f"criterion 17: peak RSS {peak_kib / 1024:.0f} MiB, budget 100 MiB")
    assert (failed, checked) == (0, 1020)
    assert peak_kib < 100 * 1024


def test_criterion_18_oracle_frontier_k220_memory():
    with _Timed("criterion 18: SNF oracle exponent law to k = 220, cold, under 100 MiB", 10.0):
        failed, checked, peak_kib = _xp_exponent_cold(220)
    print(f"criterion 18: peak RSS {peak_kib / 1024:.0f} MiB, budget 100 MiB")
    assert (failed, checked) == (0, 1320)
    assert peak_kib < 100 * 1024


def test_criterion_19_words_with_a_huge_prime_power_cold_cli():
    # psi_{p^r} prints the 4,799,995 digits of 999983^800000 on the auxiliary row
    p, r = 999983, 800000
    argv = ["-m", "periodindex.cli", "words", str(p), str(r), "--max-degree", "2", "--format", "csv"]
    with _Timed(f"criterion 19: cold `periodindex words {p} {r} --max-degree 2 --format csv`",
                2.0):
        done = run_cold(argv, text=False, check=True, timeout=20, PYTHONIOENCODING="utf-8")
    lines = done.stdout.decode().splitlines()
    assert lines[0] == "degree,height,word" and lines[2] == "2,2,σσ" and len(lines) == 3
    digits = lines[1].removeprefix("2,1,ψ_")
    assert len(digits) == 4799995 == int(r * log10(p)) + 1
    assert int(digits[-20:]) == pow(p, r, 10 ** 20)
