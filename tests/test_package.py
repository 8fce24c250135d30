"""The package's public API: the exact set of names it exports, and its one argument rule.

``__all__`` is derived from the names ``__init__`` imports, so this pin is
what notices an export that is dropped, renamed or added.  src has no
``assert``, and decides a wrong argument type or a value below its least
only in ``errors.ensure``, with no exception.
"""

import ast
import inspect
import re
import sys
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import pytest

import gnomon_triples
from gnomon_triples import (
    DiagramSpec, GeneralTriple, Gnomon, NotATripleError, NotPrimitiveError, Partition,
    PrimitiveTriple, SizeLimitError, brute_force_primitive, decompose_general, ensure_side,
    euclid_parametrization, factor_side, index_of, invert, render, render_row, render_table, scale,
    stream
)
from gnomon_triples.errors import shown
from gnomon_triples.ordering import render_lines

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
    """One ``raise TypeError``, in ``ensure``, rules every argument, ``unit_px`` and ``rows``."""
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
    assert raises == [("errors.py", "ensure")]
    assert record_checks == []
    assert RECORDS == {
        "DiagramSpec", "GeneralTriple", "Gnomon", "Partition", "PrimitiveTriple", "TableRow"
    }


def _is_ensure(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ensure"


def _is_check(node) -> bool:
    """A call of ``ensure`` or ``ensure_side``."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("ensure", "ensure_side")


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _carries_check(node) -> bool:
    """Whether node is a check call or computed from one (``ensure_side(s) // 2``); an
    attribute or item of one (``ensure(...).odd_gnomon``) is another object."""
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        return False
    return _is_check(node) or any(map(_carries_check, ast.iter_child_nodes(node)))


def _checked_targets(assign) -> set[str]:
    """The names an assignment binds from a check; a tuple's targets, each from its own element."""
    found, pairs = set(), [(target, assign.value) for target in assign.targets]
    while pairs:
        target, value = pairs.pop()
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs += zip(target.elts, value.elts)
        elif _carries_check(value):
            found |= _names(target)
    return found


def _hand_written_bounds(tree) -> list[tuple[str, int]]:
    """(def, line) of each order comparison of a name that a def checked with ``ensure``
    or ``ensure_side`` (bound from one, or handed to one as its value) with another argument."""
    found = []
    for scope, function in _defs(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        checked = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                checked |= _checked_targets(node)
            value = node.args[node.func.id == "ensure"] if _is_check(node) else None
            if isinstance(value, ast.Name):  # ensure checks its second argument
                checked.add(value.id)
        arguments = checked | {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
        for node in ast.walk(function):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
            ):
                operands = [_names(n) for n in (node.left, *node.comparators)]
                if any(
                    mine & checked and (theirs - mine) & arguments
                    for mine in operands for theirs in operands if theirs is not mine
                ):
                    found.append((scope, node.lineno))
    return found


def test_least_values_are_decided_only_in_ensure():
    """``ensure(name, value, int, least)`` is the one "at least" rule.

    No src compares what ``ensure`` returns, or a name it checked, with another
    argument, and no raise words a least value by hand: a least set by another
    argument (``Gnomon``'s ``thickness``, ``factor_window``'s ``from_s``) is
    passed to ``ensure`` as ``least``.
    """
    compared, worded = [], []
    for path in SRC:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        compared += [(path.name, scope) for scope, _ in _hand_written_bounds(tree)]
        for scope, node in _defs(tree):
            if isinstance(node, ast.Compare) and any(
                map(_is_ensure, [node.left, *node.comparators])
            ):
                compared.append((path.name, scope))
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = " ".join(
                    n.value for n in ast.walk(node.exc)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
                if re.search(r"must (be (positive|at least|>=)|lie in)", text):
                    worded.append((path.name, scope))
    assert compared == []
    assert worded == [("errors.py", "ensure")]


@pytest.mark.parametrize(
    "body, flagged",
    [
        ("n = ensure('a', a, int)\n    return n < b", True),
        ("half = ensure_side(a) // 2\n    return half < b", True),
        # an attribute of a checked value is another object, and bounds no argument
        ("odd, even = ensure('a', a, G).odd_gnomon, a.even_gnomon\n"
         "    return odd.thickness > even.thickness, odd.thickness > b", False),
        ("x, b = ensure('a', a, int), b\n    return x < b", True),
        # a tuple's target is checked only by its own element
        ("x, y = ensure_side(a), b + 1\n    return y > b", False),
    ],
    ids=["direct", "arithmetic", "attribute", "tuple-own-element", "tuple-other-element"],
)
def test_the_least_value_guard_follows_what_a_check_binds(body, flagged):
    tree = ast.parse(f"def f(a, b):\n    {body}\n")
    assert _hand_written_bounds(tree) == ([("f", 3)] if flagged else [])


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
    "ensure_side": dict(value=4, name="value"),
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
BIG = 10**5000  # past the default int-to-str limit of 4300 digits: str(BIG) raises
WRONG = (None, "3", 3.0, True, 0, -1, -BIG, BIG, (3, 4, 5), T345, scale(T345, 2))
# BIG is an int of the right type: where another argument bounds it, it is refused with a
# message that shows it as ``shown`` does, so many times per callable; the list is closed.
# On the oracles it is a valid bound with no end of work, and is not passed.
REFUSED_BIG = {"Partition": 3, "PrimitiveTriple": 3, "invert": 3, "decompose_general": 3,
               "Gnomon": 1, "stream": 1}
UNBOUNDED = {"brute_force_primitive", "euclid_parametrization"}
# The refusals worded otherwise, by how each begins and how many WRONG values reach it; the
# list is closed.  render_table names each element of rows "row", and a kind or fmt str that
# is none of them is "unknown".  (ensure_side names its value by its name argument, here "value".)
WORDED_OTHERWISE = {
    ("render_table", "rows"): ("row must be a TableRow, got ", 2),
    ("DiagramSpec", "kind"): ("unknown diagram kind '3', expected ", 1),
    ("render_row", "fmt"): ("unknown table format '3', expected ", 1),
    ("render_table", "fmt"): ("unknown table format '3', expected ", 1),
}


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


@pytest.mark.parametrize("name", VALID_CALLS)
def test_a_wrong_argument_is_refused_by_name(name):
    """Each argument in turn gets each value; only its own type, never 0, -1 or -BIG, goes through.

    The one argument rule: a refusal is a TypeError that begins "{parameter} must
    be " and ends ", got {type name}", or, for an int too small, such a ValueError
    that ends ", got {value}", the value as ``shown`` gives it.  Only WORDED_OTHERWISE and
    REFUSED_BIG say otherwise; a bare ValueError from str(BIG) shows no value and is caught.
    """
    offenders, otherwise, refused_big = [], Counter(), 0
    for parameter, valid in VALID_CALLS[name].items():
        for wrong in WRONG:
            if wrong is BIG and name in UNBOUNDED:
                continue
            try:
                _call(name, {**VALID_CALLS[name], parameter: wrong})
            except (TypeError, ValueError) as exc:
                sized = isinstance(exc, ValueError)  # only an int may be refused by size
                got, text = shown(wrong) if sized else type(wrong).__name__, str(exc)
                if (type(wrong) is int or not sized) and text.startswith(
                    f"{parameter} must be "
                ) and text.endswith(f", got {got}"):
                    continue
                if text.startswith(WORDED_OTHERWISE.get((name, parameter), ("\0",))[0]):
                    otherwise[parameter] += 1
                    continue
                if wrong is BIG and sized and got in text:
                    refused_big += 1
                    continue
                offenders.append((parameter, wrong, text))
            except Exception as exc:  # noqa: BLE001 - any other type is the failure
                offenders.append((parameter, wrong, type(exc).__name__))
            else:  # every int argument is at least 1
                if type(wrong) is not type(valid) or wrong in (0, -1, -BIG):
                    offenders.append((parameter, wrong, "returned"))
    assert offenders == []
    assert otherwise == {p: count for (n, p), (_, count) in WORDED_OTHERWISE.items() if n == name}
    assert refused_big == REFUSED_BIG.get(name, 0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # inputs the sweep does not make, each refused by the rule alone
        (lambda: invert("3", "4", "5"), TypeError, "a must be an int, got str"),  # sorted passes
        (lambda: invert(3, 4, [5]), TypeError, "c must be an int, got list"),
        (lambda: invert(5.0, 4, 3), TypeError, "a must be an int, got float"),  # sorted to z
        (lambda: PrimitiveTriple(0, 1, 1), ValueError, "x must be at least 1, got 0"),
        (lambda: PrimitiveTriple(1, 0, 1), ValueError, "y must be at least 1, got 0"),
        (lambda: decompose_general(0, 0, 0), ValueError, "a must be at least 1, got 0"),
        (lambda: Partition(-1, -1, 2), ValueError, "t must be at least 1, got -1"),
        (lambda: Partition(True, 1, 2), TypeError, "t must be an int, got bool"),
        (lambda: Partition(1, True, 2), TypeError, "l must be an int, got bool"),
        (lambda: Partition(1.0, 1, 2), TypeError, "t must be an int, got float"),
        (lambda: Partition(1, 1, 2.0), TypeError, "side must be an int, got float"),
        (lambda: ensure_side(2.0), TypeError, "side must be an int, got float"),
        (lambda: Gnomon(6, 5), ValueError, "side_length must be at least 6, got 5"),
        (lambda: brute_force_primitive(4), ValueError, "z_max must be at least 5, got 4"),
        (lambda: euclid_parametrization(4), ValueError, "z_max must be at least 5, got 4"),
        (lambda: brute_force_primitive(10.5), TypeError, "z_max must be an int, got float"),
        (lambda: euclid_parametrization(10.5), TypeError, "z_max must be an int, got float"),
        (lambda: next(stream(3, 10)), ValueError, "from_s must be a positive even integer, got 3"),
        (lambda: next(stream(2, 7)), ValueError, "to_s must be a positive even integer, got 7"),
        (lambda: next(stream(10, 2)), ValueError, "to_s must be at least 10, got 2"),
        (lambda: next(stream(30, 4)), ValueError, "to_s must be at least 30, got 4"),
        (lambda: next(render_lines(30, 4, "tsv")), ValueError, "to_s must be at least 30, got 4"),
        (lambda: render_row(tuple(ROW), "tsv"), TypeError, "row must be a TableRow, got tuple"),
        (lambda: render_table([tuple(ROW)]), TypeError, "row must be a TableRow, got tuple"),
        (lambda: DiagramSpec(["lattice"], T345), TypeError, "kind must be a str, got list"),
        (lambda: render_row(ROW, ["tsv"]), TypeError, "fmt must be a str, got list"),
        (lambda: render_table([ROW], ["tsv"]), TypeError, "fmt must be a str, got list"),
        # the sweep's inputs, for what it checks only in part: ensure_side's default name, and
        # the kinds ensure words with "an" or "or"
        (lambda: ensure_side(0), ValueError, "side must be at least 2, got 0"),
        (lambda: render_table(3), TypeError, "rows must be an Iterable, got int"),
        (lambda: DiagramSpec("lattice", T345, unit_px="10"), TypeError,
         "unit_px must be an int or float, got str"),
    ],
)
def test_a_refused_argument_is_named(call, error, message):
    """Each message in full.  A leg is named by its place in the call, not once sorted;
    ``thickness`` bounds ``side_length`` and ``from_s`` bounds ``to_s`` through ``ensure``."""
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_shown_names_an_int_only_past_the_int_to_str_limit():
    limit = sys.get_int_max_str_digits()
    assert (shown(10**limit - 1), shown(1 - 10**limit)) == (str(10**limit - 1), str(1 - 10**limit))
    bits = (10**limit).bit_length()
    assert (shown(10**limit), shown(-(10**limit))) == (
        f"<int of {bits} bits>", f"<negative int of {bits} bits>"
    )
    assert (shown("3"), shown(2.5), shown(T345), shown(True)) == ("'3'", "2.5", repr(T345), "True")
    assert shown(type("Wide", (int,), {})(-BIG)) == shown(-BIG)  # an int subclass passes ensure
    sys.set_int_max_str_digits(0)  # no limit: every int in full, as the CLI shows it
    try:
        assert shown(-BIG) == str(-BIG)
    finally:
        sys.set_int_max_str_digits(limit)


HUGE = 10**4300  # 2 * HUGE has 4301 digits
BITS, NEGATIVE = "<int of 16610 bits>", "<negative int of 16610 bits>"  # shown(BIG), shown(-BIG)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PrimitiveTriple(-BIG, 4, 5), ValueError, f"x must be at least 1, got {NEGATIVE}"),
        (lambda: Gnomon(BIG, 1), ValueError, f"side_length must be at least {BITS}, got 1"),
        (lambda: ensure_side(-BIG), ValueError, f"side must be at least 2, got {NEGATIVE}"),
        (lambda: factor_side(BIG + 1), ValueError,
         f"side must be a positive even integer, got {BITS}"),
        (lambda: Partition(1, 2 * BIG, 4), ValueError, "l must be odd, got l=<int of 16611 bits>"),
        (lambda: Partition(BIG, 1, 4), ValueError, f"2*t*l must equal the side: 2*{BITS}*1 != 4"),
        (lambda: Partition(BIG, 5, 10 * BIG), ValueError,
         f"t and l must be coprime, got t={BITS}, l=5"),
        (lambda: PrimitiveTriple(BIG, 1, 1), NotATripleError, f"{BITS}^2 + 1^2 != 1^2"),
        (lambda: PrimitiveTriple(3 * BIG, 4 * BIG, 5 * BIG), NotPrimitiveError,
         "(<int of 16612 bits>, <int of 16612 bits>, <int of 16612 bits>) has common factor "
         f"{BITS}; not primitive"),
        (lambda: PrimitiveTriple(2 * HUGE, HUGE * HUGE - 1, HUGE * HUGE + 1), ValueError,
         "x must be odd and y even: PrimitiveTriple(x=<int of 14286 bits>, y=<int of 28569 bits>, "
         "z=<int of 28569 bits>)"),
        (lambda: setattr(GeneralTriple(T345, BIG), "scale", 1), AttributeError,
         f"cannot set or delete 'scale': GeneralTriple(base={T345!r}, scale={BITS}) is immutable"),
        (lambda: factor_side(2 * (BIG + 3)), SizeLimitError,
         "factor <int of 16599 bits> is left after removing the primes up to 65536; "
         "primality is proven exact only below 3317044064679887385961981"),
        (lambda: render(DiagramSpec("lattice", T345, BIG)), SizeLimitError,
         f"a {BITS}x{BITS} lattice exceeds the limit of 10000 cells"),
        (lambda: render(DiagramSpec("lattice_regrouped", T345, BIG)), SizeLimitError,
         "<int of 16612 bits> units at 10.0 px/unit; a side must be above 0 and at most 20000 px"),
        (lambda: DiagramSpec("lattice", T345, unit_px=BIG), ValueError,
         f"unit_px must be a positive finite number, got {BITS}"),
    ],
)
def test_a_value_past_the_int_to_str_limit_is_shown_by_its_size(call, error, message):
    """One message per site that shows a value: each keeps its type and its shape."""
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
