"""Worker process: imports periodindex, then runs queries sent on stdin.

One JSON object per line in each direction.  The worker first prints
{"ready": true} once periodindex is imported.  Each request
{"id": n, "query": {...}, "timeout": s} is answered with the query's wall
time, whether it failed and why, and with tracing on the query's span
aggregate; the time is then read on the trace clock, which leaves out the
time spent reading sizes.  {"exit": true} ends the loop; with tracing on,
the spans are written to the file named by --spans before the worker exits.

Run by run.py with PYTHONPATH pointing at the checkout's src directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import signal
import sys
from time import perf_counter
from types import SimpleNamespace

import workloads


class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout


def _load(trace: bool, with_cli: bool) -> SimpleNamespace:
    import periodindex
    names = ["bounds", "words", "graded", "snf", "complexes"]
    if with_cli or trace:
        names += ["verify", "cli"]
    if trace:  # every submodule, so that every import site gets wrapped
        names += [m.name for m in pkgutil.iter_modules(periodindex.__path__)]
    mods = {}
    for name in dict.fromkeys(names):
        try:
            mods[name] = importlib.import_module(f"periodindex.{name}")
        except ImportError:
            pass  # a renamed module shows up as absent trace targets or failed queries
    return SimpleNamespace(**mods)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cli", action="store_true", help="import periodindex.cli too")
    ap.add_argument("--spans", help="trace every query and write the spans here")
    args = ap.parse_args()

    channel = sys.stdout  # redirect_stdout in cli queries must not touch it
    pi = _load(bool(args.spans), args.cli)

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    def send(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    send({"ready": True, "absent": tracer.absent if tracer else []})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            break
        send(serve(pi, tracer, request))
    if tracer:
        tracer.write(args.spans)
    send({"bye": True})
    return 0


def serve(pi, tracer, request: dict) -> dict:
    query = request["query"]
    output, failure = None, None
    start = perf_counter()
    if tracer:
        tracer.begin(request["id"])
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, request["timeout"])
            output = workloads.run_query(pi, query)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        failure = ("timeout", f"timeout after {request['timeout']} s")
    except Exception as exc:
        failure = ("failed", f"raised {type(exc).__name__}: {exc}"[:300])
    reply = {"elapsed": perf_counter() - start}
    if tracer:
        # the trace clock leaves out the time spent reading sizes
        reply["trace"] = tracer.end()
        reply["elapsed"] = reply["trace"]["query_s"]
        if query["kind"] == "cli" and output is not None:
            reply["trace"]["sizes"]["cli.stdout_bytes"] = len(output[1].encode())
    if failure is None:
        try:
            failure = workloads.check(query, output)
        except Exception as exc:
            failure = ("wrong", f"answer check raised {type(exc).__name__}: {exc}"[:300])
    reply["failure"] = failure
    return reply


if __name__ == "__main__":
    sys.exit(main())
