"""Deterministic SVG renderings of the square-plus-gnomon constructions.

All geometry is computed in integer units (one unit per integer of side
length) and scaled by a pixel factor only at emission, so identical specs
produce byte-identical SVG.  Before emitting, the renderer re-sums the
gnomon rectangles and checks that they cover exactly the paired square's area.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitError, require
from .triples import PrimitiveTriple

KINDS = (
    "square_gnomon_odd",
    "square_gnomon_even",
    "connected",
    "lattice",
    "lattice_regrouped",
)

MAX_SIDE_PX = 20000.0

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
        if self.kind not in KINDS:
            raise ValueError(f"unknown diagram kind {self.kind!r}, expected {KINDS}")
        if self.scale_k < 1:
            raise ValueError(f"scale_k must be >= 1, got {self.scale_k}")
        if not self.unit_px > 0:
            raise ValueError(f"unit_px must be positive, got {self.unit_px}")


def _band_rects(frame: int, thickness: int, css: str) -> list[_Rect]:
    """An L-band along the left and bottom of a frame, split into two rects."""
    return [
        (0, 0, thickness, frame, css),
        (thickness, frame - thickness, frame - thickness, thickness, css),
    ]


def _rect_area(rects: list[_Rect]) -> int:
    return sum(w * h for (_, _, w, h, _) in rects)


def _unit_cell(triple: PrimitiveTriple) -> list[_Rect]:
    """One z-cell: frame, even-leg square top right, odd-area gnomon."""
    x, y, z = triple.values()
    t1 = z - y
    cell = [(0, 0, z, z, "frame"), (t1, 0, y, y, "inner")]
    cell += _band_rects(z, t1, "gnomon-odd")
    return cell


def _build(spec: DiagramSpec) -> tuple[int, list[_Rect], list[tuple[int, int, list[_Rect]]]]:
    """Frame side in units, top-level rects, and translated cell groups.

    Raises AssertionError if the gnomon rectangles fail to cover the paired
    square's area exactly.
    """
    x, y, z = spec.triple.values()
    k = spec.scale_k
    t1, t2 = z - y, z - x

    if spec.kind == "square_gnomon_even":
        band = _band_rects(z, t1, "gnomon-odd")
        require(_rect_area(band) == x * x, spec)
        return z, [(0, 0, z, z, "frame"), (t1, 0, y, y, "inner")] + band, []

    if spec.kind == "square_gnomon_odd":
        band = _band_rects(z, t2, "gnomon-even")
        require(_rect_area(band) == y * y, spec)
        return z, [(0, 0, z, z, "frame"), (t2, 0, x, x, "inner")] + band, []

    if spec.kind == "connected":
        t_min, t_max = min(t1, t2), max(t1, t2)
        larger_css = "gnomon-odd" if t1 > t2 else "gnomon-even"
        shared = _band_rects(z, t_min, "shared")
        larger_only = [
            (t_min, 0, t_max - t_min, z - t_min, larger_css),
            (t_max, z - t_max, z - t_max, t_max - t_min, larger_css),
        ]
        require(_rect_area(shared) == t_min * (2 * z - t_min), spec)
        require(_rect_area(shared) + _rect_area(larger_only) == t_max * (2 * z - t_max), spec)
        inner = (t_max, 0, z - t_max, z - t_max, "inner")
        return z, [(0, 0, z, z, "frame"), inner] + larger_only + shared, []

    if spec.kind == "lattice":
        cell = _unit_cell(spec.triple)
        cell_gnomon = _rect_area([r for r in cell if r[4] == "gnomon-odd"])
        require(cell_gnomon == x * x, spec)
        require(k * k * cell_gnomon == (k * x) ** 2, spec)
        groups = [
            (col * z, row * z, cell) for row in range(k) for col in range(k)
        ]
        return k * z, [(0, 0, k * z, k * z, "frame")], groups

    # lattice_regrouped: all even-leg squares gathered top right, one total
    # gnomon of thickness k*(z - y) along the left and bottom.
    band = _band_rects(k * z, k * t1, "gnomon-odd")
    require(_rect_area(band) == (k * x) ** 2, spec)
    rects = [(0, 0, k * z, k * z, "frame"), (k * t1, 0, k * y, k * y, "inner")]
    return k * z, rects + band, []


def _px(value: float) -> str:
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def render(spec: DiagramSpec) -> str:
    """Render a spec to SVG text (SVG 1.1, one trailing newline)."""
    frame_units, rects, groups = _build(spec)
    frame_px = frame_units * spec.unit_px
    if frame_px > MAX_SIDE_PX or _px(frame_px) == "0":
        raise SizeLimitError(
            f"{frame_units} units at {spec.unit_px} px/unit is {_px(frame_px)} px; "
            f"limit is above 0 and at most {_px(MAX_SIDE_PX)} px per side"
        )

    u = spec.unit_px

    def rect_tag(rect: _Rect) -> str:
        rx, ry, rw, rh, css = rect
        return (
            f'<rect class="{css}" x="{_px(rx * u)}" y="{_px(ry * u)}" '
            f'width="{_px(rw * u)}" height="{_px(rh * u)}"/>'
        )

    size = _px(frame_px)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f"<title>{spec.kind} for ({spec.triple.x}, {spec.triple.y}, "
        f"{spec.triple.z}), k={spec.scale_k}</title>",
        f"<defs><style>{_STYLE}</style></defs>",
    ]
    lines += [rect_tag(r) for r in rects]
    for tx, ty, cell_rects in groups:
        lines.append(f'<g class="cell" transform="translate({_px(tx * u)} {_px(ty * u)})">')
        lines += [rect_tag(r) for r in cell_rects]
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
