"""Span tracer that wraps periodindex's public functions from outside.

``install`` replaces each target function by a wrapper at every place it is
bound: the defining module, every ``periodindex.*`` module that imported it
by name, and the class for methods.  A target that a later refactor renamed
or removed is reported as absent instead of failing the run.

Spans (query id, span id, parent id, name, start, end) are kept in flat
arrays and written out when the worker exits.  At the end of each query the
worker asks for that query's aggregate: per target the calls, the inclusive
time and the self time (duration minus the time covered by child spans),
plus ``other``, the self time of the query's root span.  Self times and
``other`` therefore add up to the traced query time.

Sizes (rows, summands, non-zeros) are read from a call's argument or result
as soon as it returns, so no object outlives its natural lifetime.  The
reading is timed and taken out of the trace clock (``clock``), which every
span and the query itself are measured on: it is excluded from the enclosing
spans and from the traced query time alike.
"""

from __future__ import annotations

import functools
import gc
import sys
from array import array
from time import perf_counter

# (span name, defining module, attribute or "Class.method", what sizes to read)
TARGETS = (
    ("words.enumerate_words", "periodindex.words", "enumerate_words", "rows"),
    ("words.format_word", "periodindex.words", "format_word", None),
    ("bounds.is_prime", "periodindex.bounds", "is_prime", "calls_only"),
    ("bounds.factorize", "periodindex.bounds", "factorize", None),
    ("bounds.index_bound", "periodindex.bounds", "index_bound", None),
    ("graded.kunneth", "periodindex.graded", "kunneth", "group"),
    ("graded.to_json", "periodindex.graded", "GradedAbelianGroup.to_json", None),
    ("graded.exponent", "periodindex.graded", "exponent", None),
    ("complexes.tensor_chain_complex", "periodindex.complexes", "tensor_chain_complex", "chain"),
    ("complexes.realize_chain_complex", "periodindex.complexes", "realize_chain_complex", None),
    ("complexes.closed_form_homology", "periodindex.complexes", "closed_form_homology", None),
    ("snf.validate", "periodindex.snf", "ChainComplex.validate", None),
    ("snf.homology_of_complex", "periodindex.snf", "homology_of_complex", None),
    ("snf.smith_normal_form", "periodindex.snf", "smith_normal_form", "matrix"),
    ("cli.main", "periodindex.cli", "main", None),
    ("verify.run_suite", "periodindex.verify", "run_suite", None),
)

ROOT = "query"


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [t[0] for t in TARGETS]
        self.qids, self.sids, self.parents = array("q"), array("q"), array("q")
        self.name_ids, self.starts, self.ends = array("i"), array("d"), array("d")
        self.active = False
        self.stack: list[int] = []
        self.next_sid = 0
        self.calls_only = [0] * len(self.names)
        self.sizes: dict[str, float] = {}
        self.unreadable: set[str] = set()
        self.paused = 0.0  # time spent reading sizes, kept off the trace clock
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._qid = self._root = self._first = 0
        self._start = 0.0

    # ---- wrapping ----

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "periodindex" or name.startswith("periodindex."))]
        for idx, (name, modname, attr, sizes) in enumerate(TARGETS, start=1):
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                original = vars(owner).get(meth) if isinstance(owner, type) else None
            else:
                original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = (self._counter(idx, original) if sizes == "calls_only"
                       else self._spanner(idx, original, sizes))
            if cls_name:
                self._rebind(owner, meth, wrapper, original)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper, original)

    def _rebind(self, owner, key, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _counter(self, idx, fn):
        calls = self.calls_only

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                calls[idx] += 1
            return fn(*args, **kwargs)
        return counted

    def clock(self) -> float:
        """perf_counter() less the time spent reading sizes."""
        return perf_counter() - self.paused

    def _spanner(self, idx, fn, sizes):
        name = self.names[idx]
        stack = self.stack
        reader = SIZE_READERS.get(name) if sizes else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            sid = self.next_sid
            self.next_sid = sid + 1
            stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self._record(sid, parent, idx, start, end)
            if reader:
                self._read_sizes(name, reader, args[0] if sizes == "matrix" else result)
            return result
        return spanned

    def _read_sizes(self, name, reader, obj) -> None:
        # No garbage collection while the clock is paused: it would take the
        # cost of collecting the program's own garbage off the trace clock.
        collecting = gc.isenabled()
        gc.disable()
        began = perf_counter()
        try:
            for key, value in reader(obj).items():
                self.sizes[key] = self.sizes.get(key, 0) + value
        except (AttributeError, TypeError, ValueError, IndexError):
            self.unreadable.add(name)
        finally:
            self.paused += perf_counter() - began
            if collecting:
                gc.enable()

    def _record(self, sid, parent, idx, start, end) -> None:
        self.qids.append(self._qid)
        self.sids.append(sid)
        self.parents.append(parent)
        self.name_ids.append(idx)
        self.starts.append(start)
        self.ends.append(end)

    # ---- per query ----

    def begin(self, qid: int) -> None:
        """Start the query's clock."""
        self._qid, self._start = qid, self.clock()
        self._root = self.next_sid
        self.next_sid += 1
        self._first = len(self.sids)
        self.stack[:] = [self._root]
        self.calls_only[:] = [0] * len(self.calls_only)  # the counters hold this list
        self.sizes, self.unreadable = {}, set()
        self.active = True

    def end(self) -> dict:
        """Stop the query's clock and return its aggregate."""
        stop = self.clock()
        self.active = False
        self._record(self._root, -1, 0, self._start, stop)
        first, last = self._first, len(self.sids) - 1
        recorded = set(self.sids[first:])
        covered: dict[int, float] = {}
        for i in range(first, last):
            parent = self.parents[i] if self.parents[i] in recorded else self._root
            covered[parent] = covered.get(parent, 0.0) + self.ends[i] - self.starts[i]
        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i in range(first, last):
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - covered.get(self.sids[i], 0.0)
        for idx, n in enumerate(self.calls_only):
            if n:
                calls[self.names[idx]] = n
        query_s = stop - self._start
        other_s = query_s - covered.get(self._root, 0.0)
        return {"calls": calls, "total_s": total_s, "self_s": self_s, "other_s": other_s,
                "query_s": query_s, "sizes": self.sizes, "unreadable": sorted(self.unreadable)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("query\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.sids)):
                fh.write(f"{self.qids[i]}\t{self.sids[i]}\t{self.parents[i]}\t"
                         f"{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


def _words_sizes(rows) -> dict:
    return {"words.rows": len(rows)}


def _group_sizes(group) -> dict:
    summands = distinct = 0
    for d in range(group.max_degree + 1):
        free, torsion = group.summands(d)
        summands += free + len(torsion)
        distinct += (free > 0) + len(set(torsion))
    return {"graded.kunneth.out_summands": summands, "graded.kunneth.out_distinct": distinct}


def _chain_sizes(chain) -> dict:
    cells = sum(chain.dim(n) for n in range(chain.max_degree + 1))
    nnz = dense = 0
    for n in range(1, chain.max_degree + 1):
        m = chain.differential(n)
        dense += m.rows * m.cols
        nnz += sum(1 for x in m.entries if x)
    return {"complexes.tensor_chain_complex.cells": cells,
            "complexes.tensor_chain_complex.nnz": nnz,
            "complexes.tensor_chain_complex.dense_entries": dense}


def _matrix_sizes(matrix) -> dict:
    return {"snf.smith_normal_form.entries": matrix.rows * matrix.cols}


SIZE_READERS = {
    "words.enumerate_words": _words_sizes,
    "graded.kunneth": _group_sizes,
    "complexes.tensor_chain_complex": _chain_sizes,
    "snf.smith_normal_form": _matrix_sizes,
}
