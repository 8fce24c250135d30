"""Total order on primitive triples and the table renderings of it.

Rows are indexed (N, n): N = S/2 ranks the generating sides, and n ranks
the splits of one side by ascending t.  Walking sides upward and splits
inward visits every primitive triple exactly once.
"""

from __future__ import annotations

from types import MethodType
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ensure
from .partitions import Partition, factor_side, factor_window, odd_parts
from .triples import PrimitiveTriple, split_of

# Per format, the line of a side's first split (n = 1) and of its later ones,
# newline included.  The appendix prints the side only on the first, as the
# ordered table is usually typeset: %.0s consumes the side and prints nothing.
_TSV = "%s.%s\t%s\t%s\t%s\t%s\t%s\t%s\n"
_JSONL = '{"n1":%s,"n2":%s,"s":%s,"t":%s,"l":%s,"x":%s,"y":%s,"z":%s}\n'
ROW_TEMPLATES = {
    "appendix": (_TSV, "%s.%s\t%.0s\t%s\t%s\t%s\t%s\t%s\n"),
    "tsv": (_TSV, _TSV),
    "jsonl": (_JSONL, _JSONL),
}
TABLE_FORMATS = tuple(ROW_TEMPLATES)


class TableRow(NamedTuple):
    """One row of the order; the fields are exactly the jsonl keys.

    (n1, n2) is the row's place in the order.  Built unchecked by ``stream``;
    ``partition`` and ``triple`` validate.
    """

    n1: int
    n2: int
    s: int
    t: int
    l: int
    x: int
    y: int
    z: int

    @property
    def partition(self) -> Partition:
        return Partition(t=self.t, l=self.l, side=self.s)

    @property
    def triple(self) -> PrimitiveTriple:
        return PrimitiveTriple(self.x, self.y, self.z)


def _rows(from_s: int, to_s: int, first: Callable, later: Callable) -> Iterator:
    """first(row) for each side's first split, later(row) for the rest; lazy, side by side."""
    for side, odd_powers in factor_window(from_s, to_s):
        half = side // 2
        make = first
        for rank, l in enumerate(odd_parts(odd_powers), start=1):
            t = half // l
            x = side + l * l
            y = side + 2 * t * t
            yield make((half, rank, side, t, l, x, y, x + y - side))
            make = later


def stream(from_s: int, to_s: int) -> Iterator[TableRow]:
    """Rows for all sides in [from_s, to_s], ordered by (N, n); lazy, each built in C."""
    make = MethodType(tuple.__new__, TableRow)  # tuple.__new__(TableRow, row), in C
    return _rows(from_s, to_s, make, make)


def index_of(triple: PrimitiveTriple) -> TableRow:
    """The row of a primitive triple in the total order.

    t and l are coprime, so the side's odd prime powers are theirs, each
    factored on its own.  Anything but a PrimitiveTriple raises TypeError.
    """
    x, y, z = ensure("triple", triple, PrimitiveTriple).values()
    s, t, l = split_of(x, y, z)
    odd_powers = factor_side(2 * t) + factor_side(2 * l)
    return TableRow(s // 2, 1 + odd_parts(odd_powers).index(l), s, t, l, x, y, z)


def _templates(fmt: str) -> tuple[str, str]:
    """fmt's (first split, later split) line templates; the one format check."""
    if fmt not in ROW_TEMPLATES:
        raise ValueError(f"unknown table format {fmt!r}, expected one of {TABLE_FORMATS}")
    return ROW_TEMPLATES[fmt]


# render_row and render_table are kept because perfbench/ wraps them.
def render_row(row: TableRow, fmt: str) -> str:
    """One output line for a row, without the trailing newline."""
    return (_templates(fmt)[ensure("row", row, TableRow).n2 > 1] % row)[:-1]


def render_table(rows: Iterable[TableRow], fmt: str = "appendix") -> str:
    """Render rows as text; empty input renders as empty output."""
    templates = _templates(fmt)
    return "".join(templates[ensure("row", r, TableRow).n2 > 1] % r for r in rows)


def render_lines(from_s: int, to_s: int, fmt: str) -> Iterator[str]:
    """stream(from_s, to_s) as lines in fmt, formatted in its row loop; fmt is checked here."""
    first, later = _templates(fmt)
    return _rows(from_s, to_s, first.__mod__, later.__mod__)
