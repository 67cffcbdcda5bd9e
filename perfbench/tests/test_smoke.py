"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests

Runs every workload end to end and traced on a few small queries, and
checks the pieces the full runs rely on: the digest tables cover every
input the generators can draw, the tracer survives a missing target, and
the harness refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def tiny_rounds(workload):
    return workloads.tiny_rounds(workload, random.Random(1))


@pytest.fixture(autouse=True)
def short_timeouts(monkeypatch, tmp_path):
    # the semiprime defect query would otherwise spend the full 5 s timeout
    monkeypatch.setitem(workloads.TIMEOUT_S, "cli", 1.0)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_tiny(workload):
    out = run.end_to_end(workload, 1, 0.0, tiny_rounds(workload), min_queries=1)
    assert out["correct"]
    assert set(out["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    defects = sum(1 for q in next(tiny_rounds(workload)) if q.get("defect"))
    assert out["failed"] == defects
    assert out["metrics"]["success_ratio"]["value"] == 1 - defects / out["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_tiny(workload):
    out = run.traced(workload, 1, 0.0, tiny_rounds(workload))  # raises if self times miss
    assert out["correct"]
    values = {name: m["value"] for name, m in out["metrics"].items()}
    assert set(values) == {name for name, _ in run.PER_LAYER}
    assert values["trace.overhead_ratio"] > 0
    assert values["trace.query_s"] >= values["trace.other.self_s"] > 0
    exercised = {
        "oracle": ("snf.homology_of_complex.calls", "complexes.tensor_chain_complex.nnz",
                   "snf.validate.calls", "graded.kunneth.calls"),
        "kunneth": ("graded.kunneth.out_summands", "graded.to_json.self_s",
                    "graded.exponent.self_s", "bounds.factorize.calls"),
        "cli": ("words.rows", "words.us_per_row", "cli.main.self_s", "cli.stdout_bytes",
                "verify.run_suite.self_s", "bounds.index_bound.self_s", "bounds.is_prime.calls"),
    }[workload]
    assert all(values[name] > 0 for name in exercised), values


def test_benchmark_json_matches_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_digests_cover_every_generated_input():
    digests = workloads.expected_digests()
    for seed in range(20):
        rounds = {w: run.seeded_rounds(w, seed) for w in ("kunneth", "cli")}
        for q in next(rounds["kunneth"]) + next(rounds["kunneth"]):
            if q["kind"] == "model":
                assert f"{q['n']}/{q['cap']}" in digests["model"]
        for q in next(rounds["cli"]):
            if q["check"]["type"] in ("words", "homology_model"):
                table = "words" if q["check"]["type"] == "words" else "homology"
                assert q["check"]["key"] in digests[table]


def test_tracer_reports_missing_targets_and_sums_self_times(monkeypatch):
    import periodindex.cli  # noqa: F401  (and with it every module the targets name)
    import periodindex.complexes as complexes
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("graded.renamed", "periodindex.graded", "no_such_function", None),
        ("snf.gone", "periodindex.no_such_module", "f", None)))
    original = complexes.kunneth
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["graded.renamed", "snf.gone"]
        assert complexes.kunneth is not original
        t.begin(0)
        complexes.model_homology(12, 20)
        agg = t.end()
    finally:
        t.uninstall()
    assert complexes.kunneth is original
    assert agg["calls"]["graded.kunneth"] >= 2
    assert agg["sizes"]["graded.kunneth.out_summands"] > 0
    assert t.paused > 0  # sizes were read as each call returned, off the trace clock
    assert sum(agg["self_s"].values()) + agg["other_s"] == pytest.approx(agg["query_s"], abs=1e-9)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
