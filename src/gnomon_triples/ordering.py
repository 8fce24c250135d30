"""Total order on primitive triples and the table renderings of it.

Rows are indexed (N, n): N = S/2 ranks the generating sides, and n ranks
the splits of one side by ascending t.  Walking sides upward and splits
inward visits every primitive triple exactly once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .partitions import Partition, factor_side, factor_window, odd_parts
from .triples import PrimitiveTriple, split_of

# Per format, the line of a side's first split (n = 1) and of its later ones.
# The appendix prints the side only on the first, as the ordered table is
# usually typeset: %.0s consumes the side and prints nothing.
_TSV = "%s.%s\t%s\t%s\t%s\t%s\t%s\t%s"
_JSONL = '{"n1":%s,"n2":%s,"s":%s,"t":%s,"l":%s,"x":%s,"y":%s,"z":%s}'
ROW_TEMPLATES = {
    "appendix": (_TSV, "%s.%s\t%.0s\t%s\t%s\t%s\t%s\t%s"),
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


def stream(from_s: int, to_s: int) -> Iterator[TableRow]:
    """Rows for all sides in [from_s, to_s], ordered by (N, n).

    Lazy: rows for one side are produced without factoring past its sieve segment.
    A row is construct's forward map, unchecked, and tuple.__new__ builds it in C.
    """
    new = tuple.__new__
    for side, odd_powers in factor_window(from_s, to_s):
        half = side // 2
        for rank, l in enumerate(odd_parts(odd_powers), start=1):
            t = half // l
            x = side + l * l
            y = side + 2 * t * t
            yield new(TableRow, (half, rank, side, t, l, x, y, x + y - side))


def index_of(triple: PrimitiveTriple) -> TableRow:
    """The row of a primitive triple in the total order.

    t and l are coprime, so the side's odd prime powers are theirs, each
    factored on its own.  Anything but a PrimitiveTriple raises TypeError.
    """
    if not isinstance(triple, PrimitiveTriple):
        raise TypeError(f"index_of takes a PrimitiveTriple, got {type(triple).__name__}")
    x, y, z = triple.values()
    s, t, l = split_of(x, y, z)
    odd_powers = factor_side(2 * t) + factor_side(2 * l)
    return TableRow(s // 2, 1 + odd_parts(odd_powers).index(l), s, t, l, x, y, z)


def render_row(row: TableRow, fmt: str) -> str:
    """One output line for a row, without the trailing newline."""
    try:
        template = ROW_TEMPLATES[fmt][row.n2 > 1]
    except KeyError:
        raise ValueError(f"unknown table format {fmt!r}, expected one of {TABLE_FORMATS}")
    return template % row


def render_table(rows: Iterable[TableRow], fmt: str = "appendix") -> str:
    """Render rows as text; empty input renders as empty output."""
    return "".join(render_row(r, fmt) + "\n" for r in rows)
