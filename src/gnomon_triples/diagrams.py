"""Deterministic SVG renderings of the square-plus-gnomon constructions.

All geometry is computed in integer units (one unit per integer of side
length) and scaled by a pixel factor only at emission, so identical specs
produce byte-identical SVG.  Before emitting, the renderer re-sums the
gnomon rectangles and checks that they cover exactly the paired square's area.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import SizeLimitError, ensure, require
from .gnomons import scale
from .triples import PrimitiveTriple

KINDS = (
    "square_gnomon_odd",
    "square_gnomon_even",
    "connected",
    "lattice",
    "lattice_regrouped",
)

MAX_SIDE_PX = 20000.0
# Cells in one lattice (k <= 100); bounds the work when the unit is small.
MAX_LATTICE_CELLS = 10_000

# Fixed palette; not configurable so rendered output stays stable.
_STYLE = (
    ".frame{fill:none;stroke:#30343a;stroke-width:1}"
    ".inner{fill:#bfd7ea;stroke:#30343a;stroke-width:0.5}"
    ".gnomon-odd{fill:#f2a65a;stroke:#30343a;stroke-width:0.5}"
    ".gnomon-even{fill:#7fb285;stroke:#30343a;stroke-width:0.5}"
    ".shared{fill:#d96c47;stroke:#30343a;stroke-width:0.5}"
)

# A rectangle in integer units: (x, y, width, height, css class).
_Rect = tuple[int, int, int, int, str]


@dataclass(frozen=True)
class DiagramSpec:
    """What to draw: a kind, the triple, and (for lattices) the scale."""

    kind: str
    triple: PrimitiveTriple
    scale_k: int = 1
    unit_px: float = 10.0

    def __post_init__(self) -> None:
        scale(self.triple, self.scale_k)  # a PrimitiveTriple at a positive int scale
        if self.kind not in KINDS:
            raise ValueError(f"unknown diagram kind {self.kind!r}, expected {KINDS}")
        if isinstance(self.unit_px, bool) or not isinstance(self.unit_px, (int, float)):
            raise TypeError(f"unit_px must be a number, got {type(self.unit_px).__name__}")
        if not 0 < self.unit_px <= sys.float_info.max:
            raise ValueError(f"unit_px must be a positive finite number, got {self.unit_px}")


def _band_rects(frame: int, thickness: int, css: str, dx: int = 0) -> list[_Rect]:
    """An L-band along the left and bottom of a frame dx units from the left, as two rects."""
    return [
        (dx, 0, thickness, frame, css),
        (dx + thickness, frame - thickness, frame - thickness, thickness, css),
    ]


def _rect_area(rects: list[_Rect]) -> int:
    return sum(w * h for (_, _, w, h, _) in rects)


def _square_gnomon(frame: int, thickness: int, leg: int, css: str) -> list[_Rect]:
    """A frame, its inner square top right, and the L-band of area leg^2.

    Raises AssertionError if the band's rectangles do not re-sum to leg^2.
    """
    band = _band_rects(frame, thickness, css)
    require(_rect_area(band) == leg * leg, (frame, thickness, leg))
    inner = frame - thickness
    return [(0, 0, frame, frame, "frame"), (thickness, 0, inner, inner, "inner")] + band


def _build(spec: DiagramSpec) -> tuple[int, list[_Rect], list[_Rect]]:
    """Frame side in units, top-level rects, and the lattice cell (else empty).

    The cell is z units on a side and tiles the frame k times each way.
    Raises AssertionError if the gnomon rectangles fail to cover the paired
    square's area exactly.
    """
    x, y, z = spec.triple.values()
    k = 1 if spec.kind == "square_gnomon_even" else spec.scale_k
    t1, t2 = z - y, z - x

    if spec.kind == "square_gnomon_odd":
        return z, _square_gnomon(z, t2, y, "gnomon-even"), []

    if spec.kind == "connected":
        t_min, t_max = min(t1, t2), max(t1, t2)
        larger_css = "gnomon-odd" if t1 > t2 else "gnomon-even"
        shared = _band_rects(z, t_min, "shared")
        larger_only = _band_rects(z - t_min, t_max - t_min, larger_css, t_min)
        require(_rect_area(shared) == t_min * (2 * z - t_min), spec)
        require(_rect_area(shared) + _rect_area(larger_only) == t_max * (2 * z - t_max), spec)
        inner = (t_max, 0, z - t_max, z - t_max, "inner")
        return z, [(0, 0, z, z, "frame"), inner] + larger_only + shared, []

    if spec.kind == "lattice":
        return k * z, [(0, 0, k * z, k * z, "frame")], _square_gnomon(z, t1, x, "gnomon-odd")

    # lattice_regrouped, and square_gnomon_even as its k = 1 case: all even-leg
    # squares gathered top right, one gnomon of thickness k*(z - y) left and bottom.
    return k * z, _square_gnomon(k * z, k * t1, k * x, "gnomon-odd"), []


def _px(value: float) -> str:
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def render(spec: DiagramSpec) -> str:
    """Render a spec to SVG text (SVG 1.1, one trailing newline)."""
    k = ensure("spec", spec, DiagramSpec).scale_k
    if spec.kind == "lattice" and k * k > MAX_LATTICE_CELLS:
        raise SizeLimitError(f"a {k}x{k} lattice exceeds the limit of {MAX_LATTICE_CELLS} cells")
    frame_units, rects, cell = _build(spec)
    # Compared in units first: the float product overflows for a huge frame.
    too_big = frame_units > min(MAX_SIDE_PX / spec.unit_px, sys.float_info.max)
    size = None if too_big else _px(frame_units * spec.unit_px)
    if size in (None, "0"):
        raise SizeLimitError(
            f"{frame_units} units at {spec.unit_px} px/unit; a side must be "
            f"above 0 and at most {_px(MAX_SIDE_PX)} px"
        )

    u = spec.unit_px

    def rect_tag(rect: _Rect) -> str:
        rx, ry, rw, rh, css = rect
        return (
            f'<rect class="{css}" x="{_px(rx * u)}" y="{_px(ry * u)}" '
            f'width="{_px(rw * u)}" height="{_px(rh * u)}"/>'
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f"<title>{spec.kind} for {spec.triple.values()}, k={k}</title>",
        f"<defs><style>{_STYLE}</style></defs>",
    ]
    lines += [rect_tag(r) for r in rects]
    if cell:
        # One formatted cell body, translated once per tile.
        body = "\n".join(rect_tag(r) for r in cell) + "\n</g>"
        offsets = [_px(i * spec.triple.z * u) for i in range(k)]
        lines += [
            f'<g class="cell" transform="translate({tx} {ty})">\n{body}'
            for ty in offsets
            for tx in offsets
        ]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
