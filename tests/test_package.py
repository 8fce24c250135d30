"""The package's public API: the exact set of names it exports.

``__all__`` is derived from the names ``__init__`` imports, so this pin is
what notices an export that is dropped, renamed or added.
"""

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
