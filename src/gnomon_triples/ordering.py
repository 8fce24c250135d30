"""Total order on primitive triples and the table renderings of it.

Rows are indexed (N, n): N = S/2 ranks the generating sides, and n ranks
the splits of one side by ascending t.  Walking sides upward and splits
inward visits every primitive triple exactly once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .partitions import Partition, factor_side, factor_window, split_pairs
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

    Lazy: rows for one side are produced without factoring past its sieve segment.
    """
    for side, odd_powers in factor_window(from_s, to_s):
        for rank, (t, l) in enumerate(split_pairs(side, odd_powers), start=1):
            yield TableRow(side // 2, rank, side, t, l, *split_triple(side, t, l))


def index_of(triple: PrimitiveTriple) -> TableRow:
    """The row of a primitive triple in the total order.

    t and l are coprime, so the side's odd prime powers are theirs, each
    factored on its own.
    """
    x, y, z = triple.values()
    s, t, l = split_of(x, y, z)
    odd_powers = factor_side(2 * t) + factor_side(2 * l)
    return TableRow(s // 2, 1 + split_pairs(s, odd_powers).index((t, l)), s, t, l, x, y, z)


def render_row(row: TableRow, fmt: str) -> str:
    """One output line for a row, without the trailing newline.

    The appendix format prints the side only on a side's first split (n = 1),
    as the ordered table is usually typeset.
    """
    n1, n2, s, t, l, x, y, z = row
    if fmt == "jsonl":
        return f'{{"n1":{n1},"n2":{n2},"s":{s},"t":{t},"l":{l},"x":{x},"y":{y},"z":{z}}}'
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown table format {fmt!r}, expected one of {TABLE_FORMATS}")
    side = "" if fmt == "appendix" and n2 > 1 else s
    return f"{n1}.{n2}\t{side}\t{t}\t{l}\t{x}\t{y}\t{z}"


def render_table(rows: Iterable[TableRow], fmt: str = "appendix") -> str:
    """Render rows as text; empty input renders as empty output."""
    return "".join(render_row(r, fmt) + "\n" for r in rows)
