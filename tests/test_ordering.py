"""Ordered streaming, index lookup, and the three table formats."""

import hashlib
import json
import sys

import pytest

from gnomon_triples import ordering, partitions
from gnomon_triples.errors import SizeLimitError
from gnomon_triples.gnomons import scale
from gnomon_triples.oracle import brute_force_primitive
from gnomon_triples.ordering import (
    TABLE_FORMATS,
    TableRow,
    index_of,
    render_lines,
    render_row,
    render_table,
    stream,
)
from gnomon_triples.partitions import Partition
from gnomon_triples.triples import PrimitiveTriple, construct, invert


class TestStream:
    def test_first_side_yields_one_row(self):
        rows = list(stream(2, 2))
        assert len(rows) == 1
        assert rows[0][:2] == (1, 1)
        assert rows[0].triple.values() == (3, 4, 5)

    def test_side_thirty_yields_four_rows(self):
        rows = list(stream(30, 30))
        assert [(r.n1, r.n2) for r in rows] == [(15, 1), (15, 2), (15, 3), (15, 4)]
        assert [r.triple.values() for r in rows] == [
            (255, 32, 257),
            (55, 48, 73),
            (39, 80, 89),
            (31, 480, 481),
        ]

    def test_full_reference_range_has_110_rows(self):
        assert sum(1 for _ in stream(2, 100)) == 110

    def test_rows_strictly_increase(self):
        previous = (0, 0)
        for row in stream(2, 400):
            key = (row.n1, row.n2)
            assert key > previous
            previous = key

    def test_rows_match_their_own_index(self):
        for row in stream(2, 300):
            assert index_of(row.triple) == row
            assert row.triple == construct(row.partition)

    def test_lazy_first_row_without_exhaustion(self):
        # Grabbing the head of a huge range must not enumerate the tail.
        row = next(stream(2, 10**9))
        assert row.triple.values() == (3, 4, 5)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            list(stream(3, 10))
        with pytest.raises(ValueError):
            list(stream(2, 7))
        with pytest.raises(ValueError):
            list(stream(10, 2))

    @pytest.mark.parametrize("from_s,to_s", [(4, 2), (3, 5)])
    def test_bad_range_raises_on_the_first_next_not_at_the_call(self, from_s, to_s):
        rows = stream(from_s, to_s)
        with pytest.raises(ValueError):
            next(rows)

    def test_rows_are_table_rows(self):
        assert all(type(row) is TableRow for row in stream(2, 200))

    def test_hypotenuse_exceeds_side_by_at_least_three(self):
        # z = S + 2t^2 + l^2 >= S + 3 since t, l >= 1
        for row in stream(2, 400):
            assert row.triple.z >= row.partition.side + 3

    def test_completeness_against_brute_force(self):
        # Hypotenuse exceeds the side by at least 3, so sides up to z-3 cover
        # every triple with hypotenuse <= z.
        bound = 1000
        streamed = {r.triple for r in stream(2, 996) if r.triple.z <= bound}
        assert streamed == brute_force_primitive(bound)


def reference_line(row: TableRow, fmt: str) -> str:
    """A row's output line, written out field by field."""
    n1, n2, s, t, l, x, y, z = row
    if fmt == "jsonl":
        return f'{{"n1":{n1},"n2":{n2},"s":{s},"t":{t},"l":{l},"x":{x},"y":{y},"z":{z}}}'
    side = "" if fmt == "appendix" and n2 > 1 else s
    return f"{n1}.{n2}\t{side}\t{t}\t{l}\t{x}\t{y}\t{z}"


@pytest.mark.parametrize("from_s,to_s", [(2, 4000), (10**12 + 2, 10**12 + 400)])
def test_rows_are_constructed_and_render_as_written_out(from_s, to_s):
    # Past the golden file (S <= 100), one dense range and one far window of 200 sides.
    sides = set()
    for row in stream(from_s, to_s):
        sides.add(row.s)
        assert row.triple == construct(row.partition)
        for fmt in TABLE_FORMATS:
            assert render_row(row, fmt) == reference_line(row, fmt)
    assert len(sides) == (to_s - from_s) // 2 + 1


class TestIndexOf:
    @pytest.mark.parametrize(
        "triple,n1,n2",
        [
            ((3, 4, 5), 1, 1),
            ((55, 48, 73), 15, 2),
            ((4961, 6480, 8161), 1640, 2),
        ],
    )
    def test_known_positions(self, triple, n1, n2):
        assert index_of(PrimitiveTriple(*triple))[:2] == (n1, n2)

    def test_returns_the_whole_row(self):
        row = index_of(construct(invert(55, 48, 73)))
        assert row == TableRow(n1=15, n2=2, s=30, t=3, l=5, x=55, y=48, z=73)

    @pytest.mark.parametrize(
        "value",
        [scale(PrimitiveTriple(3, 4, 5), 2), (3, 4, 5)],
        ids=["scaled-triple", "tuple"],
    )
    def test_takes_only_a_primitive_triple(self, value):
        # A scaled triple also has .values(); (6, 8, 10) would read as the odd side 5.
        with pytest.raises(TypeError, match="^triple must be a PrimitiveTriple, got "):
            index_of(value)

    def test_prime_t_and_l_need_no_rho(self, monkeypatch):
        def no_rho(n):
            raise AssertionError(f"rho was run on {n}")

        monkeypatch.setattr(partitions, "_rho", no_rho)
        t, l = 10_000_019, 10_000_079  # both prime: splits (1, tl), (t, l), (l, t), (tl, 1)
        row = index_of(construct(Partition(t=t, l=l, side=2 * t * l)))
        assert (row.n1, row.n2, row.t, row.l) == (t * l, 2, t, l)


class TestRenderTable:
    def test_appendix_rows_for_side_six(self):
        text = render_table(stream(6, 6), "appendix")
        assert text == "3.1\t6\t1\t3\t15\t8\t17\n3.2\t\t3\t1\t7\t24\t25\n"

    def test_appendix_blanks_side_on_continuation_rows(self):
        lines = render_table(stream(30, 30), "appendix").splitlines()
        assert lines[0].split("\t")[1] == "30"
        assert [line.split("\t")[1] for line in lines[1:]] == ["", "", ""]

    def test_appendix_side_is_printed_only_on_a_first_split(self):
        # A row's own place decides: a list starting mid-side leaves the side blank.
        assert render_table([index_of(PrimitiveTriple(7, 24, 25))], "appendix") == (
            "3.2\t\t3\t1\t7\t24\t25\n"
        )
        assert render_row(index_of(PrimitiveTriple(15, 8, 17)), "appendix") == (
            "3.1\t6\t1\t3\t15\t8\t17"
        )

    def test_empty_input_renders_empty_output(self):
        assert render_table([], "appendix") == ""
        assert render_table([], "tsv") == ""
        assert render_table([], "jsonl") == ""

    def test_tsv_repeats_the_side(self):
        lines = render_table(stream(30, 30), "tsv").splitlines()
        assert [line.split("\t")[1] for line in lines] == ["30"] * 4

    def test_jsonl_records_are_flat_integers(self):
        lines = render_table(stream(6, 6), "jsonl").splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0] == {
            "n1": 3, "n2": 1, "s": 6, "t": 1, "l": 3, "x": 15, "y": 8, "z": 17,
        }
        assert records[1] == {
            "n1": 3, "n2": 2, "s": 6, "t": 3, "l": 1, "x": 7, "y": 24, "z": 25,
        }

    def test_jsonl_matches_json_dumps_byte_for_byte(self):
        for row in stream(2, 2000):
            expected = json.dumps(row._asdict(), separators=(",", ":"))
            assert render_row(row, "jsonl") == expected

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError):
            render_row(next(stream(2, 2)), "csv")

    def test_unknown_format_is_rejected_for_an_empty_table(self):
        with pytest.raises(ValueError) as expected:
            render_row(next(stream(2, 2)), "csv")
        with pytest.raises(ValueError) as raised:
            render_table([], "csv")
        assert str(raised.value) == str(expected.value)

    def test_matches_golden_table(self, golden_table_text):
        assert render_table(stream(2, 100), "appendix") == golden_table_text


class TestRenderLines:
    @pytest.mark.parametrize("fmt", TABLE_FORMATS)
    @pytest.mark.parametrize(
        "from_s,to_s",
        [(2, 2000), (10**12, 10**12 + 2000), (10**20, 10**20 + 40), (2**13000, 2**13000)],
        ids=["dense", "from-1e12", "from-1e20", "side-2^13000"],
    )
    def test_lines_are_the_rendered_stream(self, from_s, to_s, fmt):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the rows of side 2**13000 print longer ints
        try:
            expected = render_table(stream(from_s, to_s), fmt)
            assert "".join(render_lines(from_s, to_s, fmt)) == expected
        finally:
            sys.set_int_max_str_digits(limit)

    # SHA-256 of render_lines(S0, S0 + 400, "tsv"), recorded when every cofactor
    # took all 13 Miller-Rabin bases and a segment held 256 half-sides.
    @pytest.mark.parametrize(
        "from_s, segment, digest",
        [
            (10**11, None, "747071e7624c43a047c1eaa600352ada9615a27794b1c5471edbba6e0c33d923"),
            (10**12, None, "932888c3ffc226bf2449f66ac59b4903e40066047b5d0192f38df67299b1f197"),
            (10**12, 7, "932888c3ffc226bf2449f66ac59b4903e40066047b5d0192f38df67299b1f197"),
            (10**20, None, "c4db84ae4e2129ef3c0e5ca48ae19da5ae3be7092ea62d4f2f122166196a2ed0"),
        ],
    )
    def test_far_windows_print_the_recorded_bytes(self, monkeypatch, from_s, segment, digest):
        if segment is not None:
            monkeypatch.setattr(partitions, "SEGMENT_LENGTH", segment)
        text = "".join(render_lines(from_s, from_s + 400, "tsv"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unknown_format_is_rejected_before_any_side_is_factored(self, monkeypatch):
        def no_sieve(from_s, to_s):
            raise AssertionError("a side was factored")

        monkeypatch.setattr(ordering, "factor_window", no_sieve)
        with pytest.raises(ValueError, match="unknown table format 'csv'"):
            render_lines(2, 4, "csv")

    @pytest.mark.parametrize("rows", [lambda a, b: render_lines(a, b, "tsv"), stream],
                             ids=["render_lines", "stream"])
    def test_rows_before_a_size_limit_come_out_first(self, monkeypatch, rows):
        # With the bound lowered to 10^11, the third side, 4 * 3 * 166666666667,
        # is a size-limit error; the 10 rows of the two sides before it come first.
        monkeypatch.setattr(partitions, "PSI_13", 10**11)
        from_s = 2 * 10**12
        expected = list(rows(from_s, from_s + 2))
        produced = []
        with pytest.raises(SizeLimitError):
            for row in rows(from_s, from_s + 400):
                produced.append(row)
        assert len(expected) == 10
        assert produced == expected
