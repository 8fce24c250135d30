"""The package's public API, the exact set of names it exports; no ``assert`` in src.

``__all__`` is derived from the names ``__init__`` imports, so this pin is
what notices an export that is dropped, renamed or added.
"""

import ast
from pathlib import Path

import gnomon_triples

EXPORTS = (
    "DiagramSpec",
    "DomainError",
    "GeneralTriple",
    "Gnomon",
    "KINDS",
    "MalformedTripleError",
    "NotATripleError",
    "NotPrimitiveError",
    "Partition",
    "PrimitiveTriple",
    "SizeLimitError",
    "TableRow",
    "brute_force_primitive",
    "construct",
    "decompose_general",
    "ensure_side",
    "enumerate_partitions",
    "euclid_parametrization",
    "factor_side",
    "gnomon_pair",
    "index_of",
    "invert",
    "overlap_terms",
    "pair_progressions",
    "partition_count",
    "render",
    "render_row",
    "render_table",
    "scale",
    "stream",
)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gnomon_triples import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(gnomon_triples.__all__)


def test_all_is_the_pinned_export_set():
    assert tuple(sorted(gnomon_triples.__all__)) == EXPORTS


def test_no_module_checks_with_assert():
    """Invariant checks are real checks: ``python -O`` strips every ``assert``."""
    found = [
        (path.name, node.lineno)
        for path in sorted(Path(gnomon_triples.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
