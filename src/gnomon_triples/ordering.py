"""Total order on primitive triples and the table renderings of it.

Rows are indexed (N, n): N = S/2 ranks the generating sides, and n ranks
the splits of one side by ascending t.  Walking sides upward and splits
inward visits every primitive triple exactly once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .partitions import Partition, ensure_side, split_pairs
from .triples import PrimitiveTriple, split_of, split_triple

TABLE_FORMATS = ("appendix", "tsv", "jsonl")


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

    Lazy: rows for one side are produced without touching later sides.
    """
    ensure_side(from_s)
    ensure_side(to_s)
    if from_s > to_s:
        raise ValueError(f"empty side range: {from_s} > {to_s}")
    for side in range(from_s, to_s + 1, 2):
        for rank, (t, l) in enumerate(split_pairs(side), start=1):
            yield TableRow(side // 2, rank, side, t, l, *split_triple(side, t, l))


def index_of(triple: PrimitiveTriple) -> TableRow:
    """The row of a primitive triple in the total order."""
    x, y, z = triple.values()
    s, t, l = split_of(x, y, z)
    return TableRow(s // 2, 1 + split_pairs(s).index((t, l)), s, t, l, x, y, z)


def render_row(row: TableRow, fmt: str, first_of_group: bool = True) -> str:
    """One output line for a row, without the trailing newline."""
    n1, n2, s, t, l, x, y, z = row
    if fmt == "jsonl":
        return f'{{"n1":{n1},"n2":{n2},"s":{s},"t":{t},"l":{l},"x":{x},"y":{y},"z":{z}}}'
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown table format {fmt!r}, expected one of {TABLE_FORMATS}")
    side = s if fmt == "tsv" or first_of_group else ""
    return f"{n1}.{n2}\t{side}\t{t}\t{l}\t{x}\t{y}\t{z}"


def render_lines(rows: Iterable[TableRow], fmt: str) -> Iterator[str]:
    """Each row's output line with its newline, produced one row at a time.

    The appendix format prints the side only on the first row of each side
    group, mirroring how the ordered table is usually typeset.
    """
    previous_side = None
    for row in rows:
        yield render_row(row, fmt, first_of_group=row.s != previous_side) + "\n"
        previous_side = row.s


def render_table(rows: Iterable[TableRow], fmt: str = "appendix") -> str:
    """Render rows as text; empty input renders as empty output."""
    return "".join(render_lines(rows, fmt))
