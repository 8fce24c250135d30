"""Structural checks on the SVG output: counts and coordinates, not pixels."""

import hashlib
import sys
import xml.etree.ElementTree as ET
from itertools import islice

import pytest

from gnomon_triples.diagrams import KINDS, MAX_LATTICE_CELLS, MAX_SIDE_PX, DiagramSpec, render
from gnomon_triples.errors import SizeLimitError
from gnomon_triples.ordering import stream
from gnomon_triples.triples import PrimitiveTriple

SVG_NS = "{http://www.w3.org/2000/svg}"

T345 = PrimitiveTriple(3, 4, 5)
T15817 = PrimitiveTriple(15, 8, 17)


def rects_by_class(svg_text: str) -> dict[str, list[tuple[float, float, float, float]]]:
    root = ET.fromstring(svg_text)
    out: dict[str, list[tuple[float, float, float, float]]] = {}
    for rect in root.iter(f"{SVG_NS}rect"):
        box = tuple(float(rect.get(key)) for key in ("x", "y", "width", "height"))
        out.setdefault(rect.get("class"), []).append(box)
    return out


class TestSquareKinds:
    def test_even_square_geometry_at_twenty_px(self):
        svg = render(DiagramSpec("square_gnomon_even", T345, unit_px=20))
        rects = rects_by_class(svg)
        assert rects["frame"] == [(0, 0, 100, 100)]
        assert rects["inner"] == [(20, 0, 80, 80)]
        # L-band of 20 px: full-height left arm plus bottom arm
        assert rects["gnomon-odd"] == [(0, 0, 20, 100), (20, 80, 80, 20)]

    def test_odd_square_geometry(self):
        svg = render(DiagramSpec("square_gnomon_odd", T345, unit_px=10))
        rects = rects_by_class(svg)
        assert rects["inner"] == [(20, 0, 30, 30)]
        assert rects["gnomon-even"] == [(0, 0, 20, 50), (20, 30, 30, 20)]

    def test_gnomon_rect_areas_cover_the_paired_square(self):
        for triple in (T345, T15817, PrimitiveTriple(5, 12, 13)):
            even = rects_by_class(render(DiagramSpec("square_gnomon_even", triple, unit_px=1)))
            total = sum(w * h for (_, _, w, h) in even["gnomon-odd"])
            assert total == triple.x**2
            odd = rects_by_class(render(DiagramSpec("square_gnomon_odd", triple, unit_px=1)))
            total = sum(w * h for (_, _, w, h) in odd["gnomon-even"])
            assert total == triple.y**2


class TestConnected:
    def test_shared_band_is_the_thinner_gnomon(self):
        svg = render(DiagramSpec("connected", T15817, unit_px=1))
        rects = rects_by_class(svg)
        # thicknesses 9 and 2 in a 17-frame: shared band is the outer 2
        assert rects["shared"] == [(0, 0, 2, 17), (2, 15, 15, 2)]
        assert rects["gnomon-odd"] == [(2, 0, 7, 15), (9, 8, 8, 7)]
        assert rects["inner"] == [(9, 0, 8, 8)]

    def test_region_areas_add_up(self):
        for row in islice(stream(2, 60), 20):
            rects = rects_by_class(render(DiagramSpec("connected", row.triple, unit_px=1)))
            z = row.triple.z
            t1, t2 = z - row.triple.y, z - row.triple.x
            t_min, t_max = min(t1, t2), max(t1, t2)
            shared = sum(w * h for (_, _, w, h) in rects["shared"])
            larger_css = "gnomon-odd" if t1 > t2 else "gnomon-even"
            larger_only = sum(w * h for (_, _, w, h) in rects[larger_css])
            assert shared == t_min * (2 * z - t_min)
            assert shared + larger_only == t_max * (2 * z - t_max)


class TestLattices:
    def test_sixteen_cells_for_scale_four(self):
        svg = render(DiagramSpec("lattice", T345, scale_k=4, unit_px=10))
        root = ET.fromstring(svg)
        cells = [g for g in root.iter(f"{SVG_NS}g") if g.get("class") == "cell"]
        assert len(cells) == 16
        assert root.get("width") == root.get("height") == "200"
        # each cell holds its own frame, inner square, and two gnomon arms
        for cell in cells:
            classes = [r.get("class") for r in cell.iter(f"{SVG_NS}rect")]
            assert classes == ["frame", "inner", "gnomon-odd", "gnomon-odd"]

    def test_cell_count_matches_scale_squared(self):
        for k in (1, 2, 3, 5):
            svg = render(DiagramSpec("lattice", T345, scale_k=k, unit_px=1))
            assert svg.count('<g class="cell"') == k * k
        assert render(DiagramSpec("lattice", T345)).count('<g class="cell"') == 1  # k defaults to 1

    def test_regrouped_geometry_for_scale_four(self):
        svg = render(DiagramSpec("lattice_regrouped", T345, scale_k=4, unit_px=10))
        rects = rects_by_class(svg)
        assert rects["frame"] == [(0, 0, 200, 200)]
        assert rects["inner"] == [(40, 0, 160, 160)]
        # total gnomon thickness: 4 units = 40 px
        assert rects["gnomon-odd"] == [(0, 0, 40, 200), (40, 160, 160, 40)]

    def test_regrouped_gnomon_covers_scaled_odd_square(self):
        for k in (1, 2, 4, 7):
            svg = render(DiagramSpec("lattice_regrouped", T15817, scale_k=k, unit_px=1))
            rects = rects_by_class(svg)
            total = sum(w * h for (_, _, w, h) in rects["gnomon-odd"])
            assert total == (k * 15) ** 2


# SHA-256 per kind over the SVGs of GOLDEN_TRIPLES x k in (1, 4, 24) at 1.3 px
# per unit, in that order: pins every byte, so a change to the builders or the
# emitter cannot move a coordinate unnoticed.
GOLDEN_TRIPLES = (T345, T15817, PrimitiveTriple(21, 20, 29))
GOLDEN_DIGESTS = {
    "square_gnomon_odd": "e7853dab32f4037b444d054f9ec48043b265b4fe8392d5f6859d225e833f895e",
    "square_gnomon_even": "0f3cc697220d95ddb18e752cb0202b892bf573a234904091415a7026e8fce2f7",
    "connected": "ccf1ea8f2b89f81b9f889d6dc0bcbb8ff0b258791c8760bff8da86a7b831e0c9",
    "lattice": "7d06bbd2279c86c74255190e67599166ae51c4c387f5fc9bad6200bf9af570c1",
    "lattice_regrouped": "34370c27e072cab48d074c9e12fd7bcfd3a2920b9d124f39ad4802b9746e27e5",
}


class TestRendering:
    @pytest.mark.parametrize("kind", KINDS)
    def test_output_matches_golden_digest(self, kind):
        digest = hashlib.sha256()
        for triple in GOLDEN_TRIPLES:
            for k in (1, 4, 24):
                digest.update(render(DiagramSpec(kind, triple, scale_k=k, unit_px=1.3)).encode())
        assert digest.hexdigest() == GOLDEN_DIGESTS[kind]

    def test_all_kinds_are_well_formed(self):
        for kind in KINDS:
            svg = render(DiagramSpec(kind, T15817, scale_k=3, unit_px=2))
            root = ET.fromstring(svg)
            assert root.tag == f"{SVG_NS}svg"
            assert root.get("version") == "1.1"

    def test_area_accounting_over_leading_table_rows(self):
        for row in islice(stream(2, 100), 20):
            for kind in KINDS:
                render(DiagramSpec(kind, row.triple, scale_k=4, unit_px=0.05))

    @pytest.mark.parametrize("kind", KINDS)
    def test_area_resum_survives_python_O(self, run_child, tmp_path, kind):
        # A wrong re-sum must stop every kind even with asserts stripped.
        code, out, err, _, _ = run_child(
            "diagram", "--kind", kind, "--triple", "3,4,5", "--out", str(tmp_path / "x.svg"),
            flags=("-O",), prelude="from gnomon_triples import diagrams\n"
                                   "diagrams._rect_area = lambda rects: -1",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: internal: ")
        assert not (tmp_path / "x.svg").exists()

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            render(DiagramSpec("square_gnomon_even", T345, unit_px=MAX_SIDE_PX))
        with pytest.raises(SizeLimitError):  # the largest finite unit is accepted, then too large
            render(DiagramSpec("square_gnomon_even", T345, unit_px=sys.float_info.max))
        # exactly at the limit is fine
        render(DiagramSpec("square_gnomon_even", T345, unit_px=MAX_SIDE_PX / 5))
        # the cell cap holds however small the unit: 100^2 cells pass, 101^2 do not
        assert MAX_LATTICE_CELLS == 100**2
        render(DiagramSpec("lattice", T345, scale_k=100, unit_px=0.01))
        with pytest.raises(SizeLimitError):
            render(DiagramSpec("lattice", T345, scale_k=101, unit_px=0.01))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DiagramSpec("blueprint", T345)
        with pytest.raises(ValueError):  # an int too large for a float is not a finite unit
            render(DiagramSpec("lattice", T345, unit_px=10**400))

    def test_trailing_newline_and_no_float_noise(self):
        svg = render(DiagramSpec("square_gnomon_even", T345, unit_px=2.5))
        assert svg.endswith("</svg>\n")
        assert 'width="12.5"' in svg  # 5 units * 2.5 px
