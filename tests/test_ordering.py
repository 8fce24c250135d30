"""Ordered streaming, index lookup, and the three table formats."""

import json

import pytest

from gnomon_triples.oracle import brute_force_primitive
from gnomon_triples.ordering import TableRow, index_of, render_row, render_table, stream
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


class TestRenderTable:
    def test_appendix_rows_for_side_six(self):
        text = render_table(stream(6, 6), "appendix")
        assert text == "3.1\t6\t1\t3\t15\t8\t17\n3.2\t\t3\t1\t7\t24\t25\n"

    def test_appendix_blanks_side_on_continuation_rows(self):
        lines = render_table(stream(30, 30), "appendix").splitlines()
        assert lines[0].split("\t")[1] == "30"
        assert [line.split("\t")[1] for line in lines[1:]] == ["", "", ""]

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

    def test_matches_golden_table(self, golden_table_text):
        assert render_table(stream(2, 100), "appendix") == golden_table_text
