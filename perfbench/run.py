"""periodindex benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload oracle|kunneth|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports periodindex from ``src``.
One caller, one query at a time (a closed loop).  Whole rounds of seeded
queries run until ``--seconds`` have passed and at least 100 queries are
done.  Every answer is checked after its clock has stopped.

With ``--trace 0`` the run reports the end-to-end metrics.  ``oracle`` and
``kunneth`` run their queries in one fresh worker process; ``cli`` starts a
cold ``periodindex`` process per query.  Times are reported at reference
machine speed (see speed.py); the wall-clock values are printed as well.
With ``--trace 1`` the same kind of queries run twice in fresh in-process
workers, untraced and traced, and the run reports per-layer metrics; ``cli``
queries go through ``cli.main``.
Spans are written to ``.perfbench_out/``.

The lines before the last print every metric with its unit, the sample
counts and every failed query.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from time import perf_counter

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (("queries_per_s", "1/s"), ("query_s_p50", "s"), ("query_s_p90", "s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("success_ratio", "ratio"))

_SPAN_NAMES = [name for name, _, _, sizes in tracer.TARGETS if sizes != "calls_only"]
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in _SPAN_NAMES]
    + [(f"{name}.calls", "count") for name in (
        "bounds.is_prime", "bounds.factorize", "graded.kunneth", "complexes.tensor_chain_complex",
        "snf.validate", "snf.homology_of_complex", "snf.smith_normal_form")]
    + [("words.rows", "count"), ("words.us_per_row", "us"),
       ("graded.kunneth.out_summands", "count"), ("graded.kunneth.out_distinct", "count"),
       ("graded.kunneth.distinct_ratio", "ratio"),
       ("complexes.tensor_chain_complex.cells", "count"),
       ("complexes.tensor_chain_complex.nnz", "count"),
       ("complexes.tensor_chain_complex.density", "ratio"),
       ("snf.smith_normal_form.entries", "count"), ("cli.stdout_bytes", "bytes"),
       ("trace.other.self_s", "s"), ("trace.query_s", "s"), ("trace.overhead_ratio", "ratio")])

SETUP_FIRST = 5          # set-ups timed before the first query
SETUP_EVERY = 6          # and one more after every this many queries; the median is reported
MIN_QUERIES = 100        # so that 10 samples lie beyond the 90th percentile
HARD_STOP_S = 120.0      # stop early rather than overrun the 180 s limit
WORKER_START_S = 60.0    # a worker that is not ready by then is broken
BACKSTOP_S = 20.0        # grace after a query's own timeout before a kill


class HarnessError(RuntimeError):
    pass


@dataclass
class Outcome:
    elapsed: float
    failure: tuple[str, str] | None  # ("failed" | "timeout" | "wrong", detail)
    trace: dict | None = None
    reference_s: float = 0.0  # mean of the reference loops timed before and after

    @property
    def timed_out(self) -> bool:
        return bool(self.failure) and self.failure[0] == "timeout"


def child_env() -> dict:
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # cold starts load periodindex from bytecode caches, as an installed
    # package does, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Worker:
    """A worker.py process; ``setup_s`` is spawn-to-ready time."""

    def __init__(self, *flags: str):
        start = perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *flags],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=child_env())
        self._buf = b""
        hello = self._read(start + WORKER_START_S)
        if not hello or not hello.get("ready"):
            self.kill()
            raise HarnessError("worker did not start; is src/periodindex importable?")
        self.setup_s = perf_counter() - start
        self.absent = hello["absent"]

    def _read(self, deadline: float) -> dict | None:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def _send(self, obj: dict) -> bool:
        try:
            self.proc.stdin.write((json.dumps(obj) + "\n").encode())
            self.proc.stdin.flush()
            return True
        except (BrokenPipeError, OSError):
            return False

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def ask(self, qid: int, query: dict, timeout: float) -> Outcome:
        start = perf_counter()
        reply = None
        if self._send({"id": qid, "query": query, "timeout": timeout}):
            reply = self._read(start + timeout + BACKSTOP_S)
        if reply is None:
            self.kill()
            return Outcome(perf_counter() - start, ("failed", "worker hung or died"))
        failure = tuple(reply["failure"]) if reply["failure"] else None
        return Outcome(reply["elapsed"], failure, reply.get("trace"))

    def close(self) -> None:
        if self.alive and self._send({"exit": True}):
            self._read(perf_counter() + WORKER_START_S)
        self.kill()

    def kill(self) -> None:
        if self.alive:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def run_cold_cli(argv: list[str], timeout: float) -> tuple[float, tuple | None, tuple]:
    """One cold ``periodindex`` process: (wall time, failure, (rc, stdout, stderr))."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "periodindex.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env())
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return perf_counter() - start, ("timeout", f"timeout after {timeout} s"), None
    elapsed = perf_counter() - start
    return elapsed, None, (proc.returncode, out.decode("utf-8", "replace"),
                           err.decode("utf-8", "replace"))


def cold_cli_query(query: dict, timeout: float) -> Outcome:
    elapsed, failure, output = run_cold_cli(query["argv"], timeout)
    return Outcome(elapsed, failure or workloads.check(query, output))


class Session:
    """Runs queries one at a time, on cold processes or an in-process worker,
    replacing a worker that had to be killed."""

    def __init__(self, workload: str, flags: tuple[str, ...], cold: bool,
                 reference: speed.Reference):
        self.flags, self.cold, self.reference = flags, cold, reference
        self.setup_samples: list[float] = []
        self.setup_references: list[float] = []
        self.worker: Worker | None = None
        self.absent: list[str] = []
        self.timeout = workloads.TIMEOUT_S[workload]

    def set_up(self) -> None:
        """Untimed: start the query worker, or warm up the bytecode caches."""
        if self.cold:
            self._cold_version()
        else:
            self.worker = Worker(*self.flags)
            self.absent = self.worker.absent

    def time_set_up(self) -> None:
        """Time one set-up: a cold ``--version``, or a throwaway worker."""
        if self.cold:
            elapsed = self._cold_version()
        else:
            worker = Worker(*self.flags)
            worker.close()
            elapsed = worker.setup_s
        self.setup_samples.append(elapsed)
        self.setup_references.append(self.reference.step())

    @staticmethod
    def _cold_version() -> float:
        elapsed, failure, output = run_cold_cli(["--version"], 60.0)
        if failure or output[0] != 0:
            raise HarnessError("periodindex --version failed")
        return elapsed

    def ask(self, qid: int, query: dict) -> Outcome:
        if self.cold:
            outcome = cold_cli_query(query, self.timeout)
        else:
            if self.worker is None or not self.worker.alive:
                self.worker = Worker(*self.flags)
            outcome = self.worker.ask(qid, query, self.timeout)
        outcome.reference_s = self.reference.step()
        return outcome

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def run_rounds(ask, rounds, seconds: float, min_queries: int) -> tuple[list[dict], list, float]:
    """Whole rounds until ``seconds`` have passed and ``min_queries`` ran.

    Also returns the number of rounds run; a round cut short by the hard
    stop counts by the share of its queries that ran.
    """
    queries, outcomes = [], []
    done = 0
    start = perf_counter()
    while not queries or perf_counter() - start < seconds or len(queries) < min_queries:
        batch = next(rounds)
        for i, query in enumerate(batch):
            if perf_counter() - start > HARD_STOP_S:
                return queries, outcomes, done + i / len(batch)
            outcomes.append(ask(len(queries), query))
            queries.append(query)
        done += 1
    return queries, outcomes, done


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def report_failures(queries: list[dict], outcomes: list[Outcome]) -> None:
    reasons = Counter()
    for query, outcome in zip(queries, outcomes):
        if outcome.failure:
            label = query.get("defect") or "unexpected"
            reasons[(outcome.failure[0], label, outcome.failure[1][:120])] += 1
    for (status, label, detail), n in sorted(reasons.items()):
        print(f"  {status} x{n} [{label}]: {detail}")
    defects = sum(1 for q in queries if q.get("defect"))
    print(f"known-defect queries: {defects} of {len(queries)}")


def end_to_end(workload: str, seed: int, seconds: float, rounds, min_queries: int) -> dict:
    cold = workload == "cli"
    session = Session(workload, (), cold, speed.Reference())

    def ask(qid: int, query: dict) -> Outcome:
        # set-ups are sampled all through the run, so they see the same
        # drifts in machine speed as the queries do
        outcome = session.ask(qid, query)
        if qid % SETUP_EVERY == SETUP_EVERY - 1:
            session.time_set_up()
        return outcome

    try:
        session.set_up()
        for _ in range(SETUP_FIRST):
            session.time_set_up()
        queries, outcomes, _ = run_rounds(ask, rounds, seconds, min_queries)
    finally:
        session.close()
    # every child has been waited for, so this is the largest child's peak
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    references = session.setup_references + [o.reference_s for o in outcomes]
    failed = sum(1 for o in outcomes if o.failure)

    def summary(times: list[float], setups: list[float]) -> dict:
        return {"queries_per_s": (len(outcomes) - failed) / sum(times),
                "query_s_p50": statistics.median(times),
                "query_s_p90": percentile(times, 0.9),
                "setup_s": statistics.median(setups)}

    wall = summary([o.elapsed for o in outcomes], session.setup_samples)
    # a timeout is a fixed wall-clock limit, not work done at machine speed,
    # so it counts at its nominal value, unscaled
    times = [session.timeout if o.timed_out else speed.at_reference(o.elapsed, o.reference_s)
             for o in outcomes]
    values = summary(times, list(map(speed.at_reference, session.setup_samples,
                                     session.setup_references)))
    values["peak_rss_mib"] = peak_kib / 1024
    values["success_ratio"] = (len(outcomes) - failed) / len(outcomes)
    print(f"workload {workload}, seed {seed}: {len(outcomes)} queries in "
          f"{sum(o.elapsed for o in outcomes):.3f} s of query time, {failed} failed, "
          f"{sum(o.timed_out for o in outcomes)} of them timed out")
    print(f"latency percentiles over {len(outcomes)} samples; set-up median of "
          f"{len(session.setup_samples)}")
    print(f"machine speed: reference loop {min(references):.6f} to {max(references):.6f} s, "
          f"median {statistics.median(references):.6f} s over {len(references)} steps; "
          f"the times below are at reference speed; wall values: "
          + ", ".join(f"{name} = {value}" for name, value in wall.items()))
    report_failures(queries, outcomes)
    return result(queries, outcomes, values, END_TO_END)


def traced(workload: str, seed: int, seconds: float, rounds) -> dict:
    """Each query runs untraced and traced, in two fresh in-process workers.

    The two take turns to go first, and both are scaled to reference speed,
    which keeps drifts in machine speed out of the overhead ratio.
    """
    flags = ("--cli",) if workload == "cli" else ()
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
    reference = speed.Reference()
    plain = Session(workload, flags, False, reference)
    session = Session(workload, flags + ("--spans", str(spans)), False, reference)

    def ask_both(qid: int, query: dict) -> tuple[Outcome, Outcome]:
        if qid % 2:
            traced_outcome = session.ask(qid, query)
            return plain.ask(qid, query), traced_outcome
        return plain.ask(qid, query), session.ask(qid, query)

    try:
        plain.set_up()
        session.set_up()
        queries, pairs, done = run_rounds(ask_both, rounds, seconds, 1)
    finally:
        plain.close()
        session.close()
    outcomes = [t for _, t in pairs]

    calls, self_s, total_s, sizes = Counter(), Counter(), Counter(), Counter()
    other = query_s = 0.0
    unreadable = set()
    for outcome in outcomes:
        agg = outcome.trace
        if agg is None:  # the worker was killed: no spans for this query
            continue
        gap = sum(agg["self_s"].values()) + agg["other_s"] - agg["query_s"]
        if abs(gap) > 1e-6:
            raise HarnessError(f"self times miss the query time by {gap:.3g} s")
        calls.update(agg["calls"])
        sizes.update(agg["sizes"])
        unreadable.update(agg["unreadable"])
        # times at reference speed, like the end-to-end ones
        scale = speed.at_reference(1.0, outcome.reference_s)
        self_s.update({name: t * scale for name, t in agg["self_s"].items()})
        total_s.update({name: t * scale for name, t in agg["total_s"].items()})
        other += agg["other_s"] * scale
        query_s += agg["query_s"] * scale

    totals = dict(sizes, **{"trace.other.self_s": other, "trace.query_s": query_s})
    for name, *_ in tracer.TARGETS:
        totals[f"{name}.calls"] = calls[name]
        totals[f"{name}.self_s"] = self_s[name]
    # sums are reported per round, whose composition is fixed, so that runs
    # that fit a different number of rounds into --seconds still compare
    values = {name: value / done for name, value in totals.items()}
    rows = sizes["words.rows"]
    values["words.us_per_row"] = (1e6 * (total_s["words.enumerate_words"]
                                         + total_s["words.format_word"]) / rows if rows else 0.0)
    summands = sizes["graded.kunneth.out_summands"]
    values["graded.kunneth.distinct_ratio"] = (
        sizes["graded.kunneth.out_distinct"] / summands if summands else 0.0)
    dense = sizes["complexes.tensor_chain_complex.dense_entries"]
    values["complexes.tensor_chain_complex.density"] = (
        sizes["complexes.tensor_chain_complex.nnz"] / dense if dense else 0.0)
    values["trace.overhead_ratio"] = (
        sum(speed.at_reference(t.elapsed, t.reference_s) for _, t in pairs)
        / sum(speed.at_reference(p.elapsed, p.reference_s) for p, _ in pairs))
    print(f"workload {workload}, seed {seed}: traced {len(outcomes)} queries in {done:g} "
          f"rounds; sums below are per round; spans in {os.path.relpath(spans, ROOT)}")
    if session.absent:
        print(f"absent trace targets: {', '.join(session.absent)}")
    if unreadable:
        print(f"sizes not readable from: {', '.join(sorted(unreadable))}")
    report_failures(queries, outcomes)
    return result(queries, outcomes, values, PER_LAYER)


def result(queries, outcomes, values: dict, declared) -> dict:
    metrics = {}
    for name, unit in declared:
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
        print(f"{name} = {metrics[name]['value']} {unit}")
    return {"correct": not any(o.failure and o.failure[0] == "wrong" for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if o.failure),
            "metrics": metrics}


def seeded_rounds(workload: str, seed: int):
    return workloads.ROUNDS[workload](random.Random(f"{workload}/{seed}"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "periodindex" / "__init__.py").is_file():
        print(f"no periodindex sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and every child, so that the reference
        # loop measures the CPU the queries ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rounds = seeded_rounds(args.workload, args.seed)
    if args.trace:
        out = traced(args.workload, args.seed, args.seconds, rounds)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds, rounds, MIN_QUERIES)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
