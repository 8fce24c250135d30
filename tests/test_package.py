"""The package's public API: the exact set of names it exports, and its one type rule.

``__all__`` is derived from the names ``__init__`` imports, so this pin is
what notices an export that is dropped, renamed or added.  src has no
``assert``, and decides a wrong argument type only in ``errors.ensure``.
"""

import ast
import inspect
from collections.abc import Iterator
from pathlib import Path

import pytest

import gnomon_triples
from gnomon_triples import DiagramSpec, Partition, PrimitiveTriple, index_of, scale

SRC = sorted(Path(gnomon_triples.__file__).parent.glob("*.py"))
T345 = PrimitiveTriple(3, 4, 5)

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
        for path in SRC
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _defs(node, scope=()):
    """(enclosing def's dotted name, node) for every node under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        yield ".".join(inner), child
        yield from _defs(child, inner)


RECORDS = {
    name
    for name in gnomon_triples.__all__
    if isinstance(getattr(gnomon_triples, name), type)
    and not issubclass(getattr(gnomon_triples, name), Exception)
}


def test_wrong_types_are_decided_only_in_ensure():
    """One ``raise TypeError`` rules every int and record; ``unit_px``, a number, has its own."""
    raises, record_checks = [], []
    for path in SRC:
        source = path.read_text(encoding="utf-8")
        assert "ensure_int" not in source, path.name
        for scope, node in _defs(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "TypeError":
                    raises.append((path.name, scope))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and RECORDS & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                and path.name != "errors.py"
            ):
                record_checks.append((path.name, node.lineno))
    assert raises == [("diagrams.py", "DiagramSpec.__post_init__"), ("errors.py", "ensure")]
    assert record_checks == []
    assert RECORDS == {
        "DiagramSpec", "GeneralTriple", "Gnomon", "Partition", "PrimitiveTriple", "TableRow"
    }


ROW = index_of(T345)
# One valid call of every public callable but TableRow (unchecked by design) and
# the exception classes, by keyword.
VALID_CALLS = {
    "DiagramSpec": dict(kind="lattice", triple=T345, scale_k=2, unit_px=10.0),
    "GeneralTriple": dict(base=T345, scale=2),
    "Gnomon": dict(thickness=1, side_length=5),
    "Partition": dict(t=2, l=1, side=4),
    "PrimitiveTriple": dict(x=3, y=4, z=5),
    "brute_force_primitive": dict(z_max=5),
    "construct": dict(partition=Partition(t=2, l=1, side=4)),
    "decompose_general": dict(a=3, b=4, c=5),
    "ensure_side": dict(value=4),
    "enumerate_partitions": dict(side=30),
    "euclid_parametrization": dict(z_max=5),
    "factor_side": dict(side=30),
    "gnomon_pair": dict(triple=T345, k=2),
    "index_of": dict(triple=T345),
    "invert": dict(a=3, b=4, c=5),
    "overlap_terms": dict(pair=scale(T345, 2)),
    "pair_progressions": dict(pair=scale(T345, 2)),
    "partition_count": dict(side=30),
    "render": dict(spec=DiagramSpec("lattice", T345, 2)),
    "render_row": dict(row=ROW, fmt="tsv"),
    "render_table": dict(rows=[ROW], fmt="tsv"),
    "scale": dict(triple=T345, k=2),
    "stream": dict(from_s=2, to_s=30),
}
WRONG = (None, "3", 3.0, True, (3, 4, 5), T345, scale(T345, 2))


def _call(name, kwargs):
    result = getattr(gnomon_triples, name)(**kwargs)
    return next(result) if isinstance(result, Iterator) else result


def test_the_sweep_covers_every_public_callable():
    callables = {
        name
        for name, value in vars(gnomon_triples).items()
        if name in gnomon_triples.__all__ and callable(value) and name != "TableRow"
        and not (isinstance(value, type) and issubclass(value, Exception))
    }
    assert set(VALID_CALLS) == callables
    for name, kwargs in VALID_CALLS.items():
        assert list(kwargs) == list(inspect.signature(getattr(gnomon_triples, name)).parameters)
        _call(name, kwargs)


def test_a_wrong_type_is_a_type_or_value_error():
    """Each argument in turn gets each value; only a value of its own type may go through."""
    offenders = []
    for name, kwargs in VALID_CALLS.items():
        for parameter, valid in kwargs.items():
            for wrong in WRONG:
                try:
                    _call(name, {**kwargs, parameter: wrong})
                except (TypeError, ValueError):
                    continue
                except Exception as exc:  # noqa: BLE001 - any other type is the failure
                    offenders.append((name, parameter, wrong, type(exc).__name__))
                    continue
                if type(wrong) is not type(valid):
                    offenders.append((name, parameter, wrong, "returned"))
    assert offenders == []


@pytest.mark.parametrize(
    "name, parameter, wrong, message",
    [
        ("construct", "partition", T345, "partition must be a Partition, got PrimitiveTriple"),
        ("render", "spec", T345, "spec must be a DiagramSpec, got PrimitiveTriple"),
        ("overlap_terms", "pair", T345, "pair must be a GeneralTriple, got PrimitiveTriple"),
        ("pair_progressions", "pair", T345, "pair must be a GeneralTriple, got PrimitiveTriple"),
        ("render_row", "row", tuple(ROW), "row must be a TableRow, got tuple"),
        ("render_table", "rows", [tuple(ROW)], "row must be a TableRow, got tuple"),
    ],
    ids=["construct", "render", "overlap_terms", "pair_progressions", "render_row", "render_table"],
)
def test_a_record_argument_of_the_wrong_type_is_named(name, parameter, wrong, message):
    """These six once leaked AttributeError; ``render_table`` names each of its rows."""
    with pytest.raises(TypeError) as caught:
        _call(name, {**VALID_CALLS[name], parameter: wrong})
    assert str(caught.value) == message
