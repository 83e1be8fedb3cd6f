"""Every program name the benchmark under ``perfbench/`` patches or calls exists.

``perfbench/spans.py`` wraps opgraph functions by module and name, and
``perfbench/workloads.py`` calls them, so a rename in the program breaks the
benchmark while the rest of this suite passes.  Both files are only read
here: ``spans.py`` is executed from its source text, which writes no bytecode
next to it, and ``workloads.py`` is parsed, not run.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

from opgraph.templates import instantiate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    path = PERFBENCH / "spans.py"
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _workload_calls() -> list:
    """(module, name) of each opgraph name ``workloads.py`` imports or reads
    off an imported opgraph module."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules, calls = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "opgraph":
            for alias in node.names:
                if node.module == "opgraph":
                    modules[alias.asname or alias.name] = f"opgraph.{alias.name}"
                else:
                    calls.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            calls.add((modules[node.value.id], node.attr))
    return sorted(calls)


def test_tracer_installs_counts_and_uninstalls():
    tracer = _spans().Tracer()
    originals = {}
    try:
        # each patch looks its name up first, so a missing name raises here
        tracer.install()
        for owner, attr, original in tracer._patches:
            originals.setdefault((id(owner), attr), (owner, original))
        instantiate("ct", 8).operator()
    finally:
        tracer.uninstall()
    assert len(originals) > 40
    assert tracer.n["templates.operator"] == tracer.n["graph.compile"] == 1
    for (_, attr), (owner, original) in originals.items():
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} still wrapped"


def test_workload_scan_sees_the_calls():
    calls = _workload_calls()
    assert ("opgraph.calibration", "calibrate_alg2") in calls
    assert ("opgraph.triad", "score_recoverability") in calls
    assert ("opgraph.tensor", "Tensor") in calls


@pytest.mark.parametrize("module, name", _workload_calls())
def test_workload_calls_exist(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
