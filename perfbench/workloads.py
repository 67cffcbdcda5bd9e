"""Seeded query generators, the query bodies and their answer checks.

A run repeats whole rounds of the composition set out below, which keeps the
latency distribution, and on ``cli`` the share of known-defect queries, the
same from seed to seed.  Composite ``kunneth`` answers and ``words`` listings
have no independent reference; their checks use digests recorded from the
seed commit in ``digests.json`` (see ``record_digests.py``), so the
generators only draw from the finite domains listed here.
"""

from __future__ import annotations

import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from itertools import count
from math import log10, prod
from pathlib import Path

import canon

WORKLOADS = ("oracle", "kunneth", "cli")
FORMATS = ("pretty-table", "json", "csv")

# Per-query timeout: several times the slowest correct query of the workload.
TIMEOUT_S = {"oracle": 10.0, "kunneth": 10.0, "cli": 5.0}

# ---- round composition ----
#
# Each workload's round is a fixed list of tiers.  A tier is a list of
# interchangeable variants of similar cost and names how many it gives per
# round; the seed orders the variants and each round takes the next ones,
# so inputs repeat only after a tier's variants are used up.  The slow tiers
# hold fixed sizes, which keeps the 50th and 90th percentiles inside a tier
# rather than on the edge between two, where they would jump from seed to
# seed.  The fast tiers vary widely.


def _oracle(p, r, cap):
    return {"kind": "oracle", "p": p, "r": r, "cap": cap}


def _model(n, cap):
    return {"kind": "model", "n": n, "cap": cap}


def _primary(p, r, cap):
    return {"kind": "primary", "p": p, "r": r, "cap": cap}


ORACLE_TIERS = (
    # frontier: 0.4 - 0.75 s each on the seed commit
    (2, [_oracle(2, r, 42) for r in (1, 2)]),
    (2, [_oracle(3, r, 76) for r in (1, 2)]),
    (2, [_oracle(5, r, 124) for r in (1, 2)]),
    # mid-sized, holding the median: about 0.1 s each
    (2, [_oracle(2, r, 34) for r in (1, 2)]),
    (2, [_oracle(3, r, 58) for r in (1, 2)]),
    (2, [_oracle(5, r, 100) for r in (1, 2)]),
    # small
    (2, [_oracle(2, r, cap) for r in (1, 2) for cap in range(16, 27, 2)]),
    (2, [_oracle(3, r, cap) for r in (1, 2) for cap in range(30, 47, 4)]),
    (2, [_oracle(5, r, cap) for r in (1, 2) for cap in range(40, 81, 10)]),
)

KUNNETH_TIERS = (
    # the deepest p = 2 model, about 1.3 s, above the 90th percentile
    (1, [_primary(2, r, 200) for r in (1, 2)]),
    # about 0.7 s, holding the 90th percentile: three primes at cap 74 (30 and
    # 360 give groups of the same shape)
    (3, [_model(n, 74) for n in (30, 360)]),
    # about 0.2 - 0.4 s: two to five primes, the deepest p = 3 model, p = 2
    # at cap 125
    (2, [_primary(2, r, 125) for r in (1, 2)]),
    (1, [_model(n, 60) for n in (30, 360)]),
    (1, [_model(n, 48) for n in (210, 330)]),
    (1, [_model(2310, 40)]),
    (1, [_model(10, 80), _model(18, 76)]),
    (1, [_primary(3, r, 300) for r in (1, 2)]),
    # small
    (4, [_model(n, cap) for n in (6, 10, 15, 30, 210) for cap in (30, 36, 40)]),
    (2, [_primary(p, r, cap) for p, caps in ((3, (150, 200, 250)), (5, (300, 350, 400)))
         for r in (1, 2) for cap in caps]),
)

# words per round: (p, max degree, plan).  A plan is either a list of fixed
# (r, format) pairs, of which round i takes every other one from i % 2 on, so
# that the two rounds of a run hold each pair once, or the number of pairs to
# draw.  The p = 2 listings at degree 60 are the slowest correct cli queries;
# JSON of that listing is also the cli's peak memory.  The six at degree 48
# in a run hold the 90th percentile, so their pairs are fixed too.
P2_PAIRS = [(r, fmt) for fmt in FORMATS for r in (1, 2)]
WORDS_SIZES = ((2, 60, P2_PAIRS), (2, 48, P2_PAIRS), (3, 66, 2), (5, 100, 2))
WORDS_DOMAIN = [(p, r, deg) for p, deg, _ in WORDS_SIZES for r in (1, 2)] + [(2, 1, 36)]
CLI_HOMOLOGY_DOMAIN = [(n, cap) for n in (6, 10, 12, 15, 30, 60)
                       for cap in (12, 16, 20, 24, 30)]
MODEL_DOMAIN = sorted({(q["n"], q["cap"]) for _, variants in KUNNETH_TIERS
                       for q in variants if q["kind"] == "model"})

# Primes the bound generator multiplies, so every reference is computed from
# a factorisation chosen here rather than found by factorising.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
PRIMES_NEAR_1E6 = (999959, 999961, 999979, 999983, 1000003, 1000033, 1000037, 1000039)
PRIMES_NEAR_1E12 = (999999999959, 999999999961, 999999999989,
                    1000000000039, 1000000000061, 1000000000063)
PRIMES_NEAR_1E9 = (999999929, 999999937, 1000000007, 1000000009, 1000000021, 1000000033)

# Above this many digits Python 3.11+ refuses int -> str, which the CLI hits.
INT_STR_DIGITS = 4300


def tiered_rounds(rng: random.Random, tiers):
    queues = [[] for _ in tiers]
    while True:
        queries = []
        for (per_round, variants), queue in zip(tiers, queues):
            for _ in range(per_round):
                if not queue:
                    queue.extend(variants)
                    rng.shuffle(queue)
                queries.append(dict(queue.pop()))
        rng.shuffle(queries)
        yield queries


def oracle_rounds(rng: random.Random):
    """18 queries (p, r, cap), p in {2, 3, 5}: chain complex, SNF, Kunneth."""
    return tiered_rounds(rng, ORACLE_TIERS)


def kunneth_rounds(rng: random.Random):
    """17 queries: composite orders with 2-5 primes and deep prime powers."""
    return tiered_rounds(rng, KUNNETH_TIERS)


def _cli(argv: list[str], check: dict, defect: str | None = None) -> dict:
    return {"kind": "cli", "argv": argv, "check": check, "defect": defect}


def _bound(rng: random.Random, factors: list[tuple[int, int]], d: int,
           defect: str | None = None) -> dict:
    n = prod(p ** e for p, e in factors)
    fmt = rng.choice(FORMATS)
    argv = ["bound", str(n), str(d), "--format", fmt]
    if rng.random() < 0.3:
        argv.append("--compare")
    return _cli(argv, {"type": "bound", "factors": factors, "d": d, "format": fmt}, defect)


def _defects(rng: random.Random, index: int = 0) -> list[dict]:
    """Two inputs that fail on the seed commit, kept so that their fixes show.

    The semiprime spends the whole timeout, so only even rounds hold one:
    one in each two-round run.  Odd rounds hold a second oversized bound.
    """
    def too_long() -> dict:
        # a bound of more than 4300 digits dies in int -> str with a traceback
        factors = rng.choice(([(2, 1)], [(3, 1)], [(5, 1)], [(2, 1), (3, 1)]))
        d = (2 + int(1.2 * INT_STR_DIGITS / log10(prod(p for p, _ in factors)))
             + rng.randint(0, 400))
        return _bound(rng, factors, d, defect="bound value over 4300 digits")

    if index % 2:
        return [too_long(), too_long()]
    # trial division of a semiprime near 10^18 runs for minutes
    factors = sorted((q, 1) for q in rng.sample(PRIMES_NEAR_1E9, 2))
    return [too_long(), _bound(rng, factors, rng.randint(2, 8),
                               defect="trial division of a semiprime near 10^18")]


def cli_round(rng: random.Random, index: int = 0) -> list[dict]:
    """50 cold-process queries, 2 of them known defects; ``index`` counts rounds."""
    qs = []
    for _ in range(15):  # small n
        primes = rng.sample(SMALL_PRIMES, rng.randint(1, 3))
        qs.append(_bound(rng, sorted((p, rng.randint(1, 3)) for p in primes), rng.randint(1, 40)))
    for _ in range(4):  # n near 10^12: a prime, or two primes near 10^6
        if rng.random() < 0.5:
            factors = [(rng.choice(PRIMES_NEAR_1E12), 1)]
        else:
            factors = sorted((p, 1) for p in rng.sample(PRIMES_NEAR_1E6, 2))
        qs.append(_bound(rng, factors, rng.randint(20, 120)))
    qs += _defects(rng, index)
    for _ in range(4):
        fmt, n_max, d_max = rng.choice(FORMATS), rng.randint(8, 30), rng.randint(4, 12)
        qs.append(_cli(["table", "--n-max", str(n_max), "--d-max", str(d_max), "--format", fmt],
                       {"type": "table", "n_max": n_max, "d_max": d_max, "format": fmt}))
    for p, deg, plan in WORDS_SIZES:
        fixed = isinstance(plan, list)
        if fixed:
            plan = plan[index % 2::2]
        else:
            plan = [(rng.choice((1, 2)), rng.choice(FORMATS)) for _ in range(plan)]
        for r, fmt in plan:
            argv = ["words", str(p), str(r), "--max-degree", str(deg), "--format", fmt]
            if not fixed and rng.random() < 0.5:
                argv.append("--ascii")
            qs.append(_cli(argv, {"type": "words", "key": f"{p}/{r}/{deg}", "format": fmt}))
    for _ in range(5):
        p, r, cap, fmt = rng.choice((2, 3, 5)), rng.choice((1, 2)), rng.randint(16, 40), rng.choice(FORMATS)
        qs.append(_cli(["homology", "--prime", str(p), "--exponent", str(r),
                        "--max-degree", str(cap), "--format", fmt],
                       {"type": "homology_primary", "p": p, "r": r, "format": fmt}))
    for _ in range(5):
        (n, cap), fmt = rng.choice(CLI_HOMOLOGY_DOMAIN), rng.choice(FORMATS)
        qs.append(_cli(["homology", str(n), "--max-degree", str(cap), "--format", fmt],
                       {"type": "homology_model", "key": f"{n}/{cap}", "format": fmt}))
    for suite in ("all", "all", "snf", "snf", "elementary"):
        qs.append(_cli(["verify", "--suite", suite, "--seed", str(rng.randint(0, 999))],
                       {"type": "verify"}))
    rng.shuffle(qs)
    return qs


def cli_rounds(rng: random.Random):
    for index in count():
        yield cli_round(rng, index)


ROUNDS = {"oracle": oracle_rounds, "kunneth": kunneth_rounds, "cli": cli_rounds}


def tiny_rounds(workload: str, rng: random.Random):
    """A few small queries of every shape, for the harness smoke test."""
    while True:
        if workload == "oracle":
            yield [_oracle(p, 1, 12) for p in (2, 3)]
        elif workload == "kunneth":
            yield [_model(6, 30), _primary(2, 1, 40)]
        else:
            full = cli_round(rng)
            shapes = ("bound", "table", "homology_primary", "homology_model", "verify")
            yield ([next(q for q in full if q["check"]["type"] == s and not q["defect"])
                    for s in shapes]
                   + [_cli(["words", "2", "1", "--max-degree", "36", "--format", "csv"],
                           {"type": "words", "key": "2/1/36", "format": "csv"})]
                   + _defects(rng))


# ---- query bodies: the timed region, calling through module attributes so
# ---- that the tracer's wrappers are seen ----

def run_query(pi, query: dict):
    kind = query["kind"]
    if kind == "oracle":
        p, r, cap = query["p"], query["r"], query["cap"]
        chain = pi.complexes.primary_model_chain_complex(p, r, cap)
        snf = [pi.snf.homology_of_complex(chain, d) for d in range(cap)]
        return snf, pi.complexes.primary_model_homology(p, r, cap)
    if kind in ("model", "primary"):
        if kind == "model":
            group = pi.complexes.model_homology(query["n"], query["cap"])
        else:
            group = pi.complexes.primary_model_homology(query["p"], query["r"], query["cap"])
        exponents = [pi.graded.exponent(group, d)[0] for d in range(query["cap"] + 1)]
        return group.to_json(), exponents
    if kind == "cli":
        return run_cli_in_process(pi, query["argv"])
    raise ValueError(f"unknown query kind {kind!r}")


def run_cli_in_process(pi, argv: list[str]) -> tuple[int, str, str]:
    """``periodindex <argv>`` through ``cli.main``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = pi.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
        except Exception:  # an uncaught error ends a real process the same way
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


# ---- answer checks: never timed ----

@cache
def expected_digests() -> dict:
    return json.loads((Path(__file__).parent / "digests.json").read_text())


def check(query: dict, output) -> tuple[str, str] | None:
    """None when the answer is right, else ("failed" | "wrong", detail).

    "failed" is an error the program reported (exit code, traceback);
    "wrong" is an answer it gave that does not check out.
    """
    kind = query["kind"]
    if kind == "cli":
        rc, out, err = output
        if "Traceback" in err:
            return "failed", f"traceback: {err.strip().splitlines()[-1]}"[:300]
        if rc != 0:
            return "failed", f"exit code {rc}: {err.strip()}"[:300]
        problem = check_cli_output(query["check"], out)
    elif kind == "oracle":
        problem = _check_oracle(query, *output)
    else:
        problem = _check_model(query, *output)
    return ("wrong", problem) if problem else None


def _check_oracle(query: dict, snf, group) -> str | None:
    forms = canon.group_form(group.to_json())
    for d, (free, torsion) in enumerate(snf):
        if canon.degree_form(free, torsion) != forms[d]:
            return f"routes disagree in degree {d}"
    snf_forms = tuple(canon.degree_form(f, t) for f, t in snf)
    return "; ".join(canon.law_problems(snf_forms, query["p"], query["r"])) or None


def _check_model(query: dict, data: dict, exponents: list[int]) -> str | None:
    forms = canon.group_form(data)
    if len(forms) != query["cap"] + 1:
        return f"{len(forms) - 1} degrees returned for cap {query['cap']}"
    if [canon.exponent_of(f) for f in forms] != exponents:
        return "exponent() disagrees with the summands"
    if query["kind"] == "primary":
        return "; ".join(canon.law_problems(forms, query["p"], query["r"])) or None
    key = f"{query['n']}/{query['cap']}"
    if canon.digest(forms) != expected_digests()["model"][key]:
        return f"model_homology({query['n']}, {query['cap']}) differs from the recorded digest"
    return None


def check_cli_output(spec: dict, out: str) -> str | None:
    kind = spec["type"]
    try:
        with canon.unlimited_int_digits():
            return _check_cli_output(kind, spec, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_cli_output(kind: str, spec: dict, out: str) -> str | None:
    if kind == "bound":
        got = canon.parse_bound(spec["format"], out)
        ok = got == canon.bound_reference(spec["factors"], spec["d"])
    elif kind == "table":
        cells = canon.parse_table(spec["format"], out)
        want = {(n, d): canon.bound_reference(canon.factor(n), d)
                for n in range(1, spec["n_max"] + 1) for d in range(1, spec["d_max"] + 1)}
        ok = cells == want
    elif kind == "words":
        rows = canon.parse_words(spec["format"], out)
        ok = canon.digest(rows) == expected_digests()["words"][spec["key"]]
    elif kind == "homology_primary":
        problems = canon.law_problems(canon.parse_homology(spec["format"], out),
                                      spec["p"], spec["r"])
        return "; ".join(problems) or None
    elif kind == "homology_model":
        forms = canon.parse_homology(spec["format"], out)
        ok = canon.digest(forms) == expected_digests()["homology"][spec["key"]]
    elif kind == "verify":
        ok = canon.parse_verify(out)
    else:
        raise ValueError(f"unknown check {kind!r}")
    return None if ok else f"wrong {kind} answer"
