"""The library names that the benchmark in perfbench/ wraps or calls still exist.

The suite collects only tests/, so a deleted or renamed function that the
benchmark uses would pass here and break the benchmark.  The benchmark's
files are read as text, neither imported nor changed.
"""

import ast
import importlib
import re
from pathlib import Path

import gnomon_triples

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_exists():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    ]
    assert wrapped
    missing = [
        (module, function)
        for module, function in wrapped
        if not callable(getattr(importlib.import_module(f"gnomon_triples.{module}"), function, None))
    ]
    assert missing == []


def test_every_name_the_worker_calls_exists():
    source = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\blib\.(\w+)", source))
    assert {"gnomon_pair", "pair_progressions", "overlap_terms"} <= names
    assert sorted(name for name in names if not hasattr(gnomon_triples, name)) == []
