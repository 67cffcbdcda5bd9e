"""The benchmark's calls into the package, read from its sources: every
``from periodindex.<module> import <name>`` in ``perfbench/*.py``, and every
``pi.<module>.<name>`` in ``perfbench/workloads.py``, must name something
the package still has.  A refactor that moves or renames one of them breaks
the benchmark (``record_digests.py`` included) without failing any other
test.  The tracer's targets are strings, not calls: each is read from
``TARGETS`` in ``perfbench/tracer.py`` and must resolve too, or the
per-layer metric it feeds reads 0 instead of failing.
The ``words`` rows the benchmark checks against recorded digests are
recomputed here, so a change to them fails Tier-1, not only a benchmark run."""

import ast
import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _references() -> set[tuple[str, str, str]]:
    """{(file, module, name)} of the package names the benchmark calls."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("periodindex."):
                found.update((path.name, node.module, alias.name) for alias in node.names)
            elif (path.name == "workloads.py" and isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name) and node.value.value.id == "pi"):
                found.add((path.name, f"periodindex.{node.value.attr}", node.attr))
    return found


def test_every_package_name_the_benchmark_calls_resolves():
    references = _references()
    assert {file for file, _, _ in references} == {"record_digests.py", "workloads.py"}
    missing = [f"{file}: {module}.{name}" for file, module, name in sorted(references)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


# targets whose functions left the package; the tracer lists them as absent
RETIRED_TARGETS = {"graded.kunneth", "complexes.tensor_chain_complex"}


def test_every_tracer_target_resolves():
    # each target is (metric, module, attribute or Class.method, sizes)
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    targets, = (ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    assert RETIRED_TARGETS <= {name for name, *_ in targets}
    missing = []
    for name, module, attr, _ in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner) and name not in RETIRED_TARGETS:
            missing.append(name)
    assert not missing, missing


def test_words_rows_reproduce_the_recorded_digests(monkeypatch):
    """The benchmark checks each ``words`` listing of the ``cli`` workload
    against a digest recorded from ``enumerate_words`` and ``format_word``;
    recomputed through ``record_digests.words_digest``, all must still match."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    record_digests = importlib.import_module("record_digests")
    workloads = importlib.import_module("workloads")
    recorded = json.loads((PERFBENCH / "digests.json").read_text())["words"]
    assert sorted(recorded) == sorted(f"{p}/{r}/{deg}" for p, r, deg in workloads.WORDS_DOMAIN)
    changed = [f"{p}/{r}/{deg}" for p, r, deg in workloads.WORDS_DOMAIN
               if record_digests.words_digest(p, r, deg) != recorded[f"{p}/{r}/{deg}"]]
    assert not changed, changed
