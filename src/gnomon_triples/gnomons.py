"""L-shaped gnomon decompositions of a triple and their odd-number progressions.

A square of side L splits into a smaller square of side L - T and an
L-shaped gnomon of thickness T with area T(2L - T).  Every triple yields
two such gnomons over the same z-by-z square: one of thickness z - y
carrying area x^2, one of thickness z - x carrying area y^2.  Each gnomon's
area is also the sum of consecutive odd numbers starting just above the
inner square, and both progressions end at 2z - 1, so the shorter one is a
suffix of the longer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require
from .triples import GeneralTriple, PrimitiveTriple


@dataclass(frozen=True)
class Gnomon:
    """An L-shaped border of thickness T inside a square of side L."""

    thickness: int
    side_length: int
    area: int

    def __post_init__(self) -> None:
        if not 0 < self.thickness <= self.side_length:
            raise ValueError(
                f"thickness must lie in 1..side_length, got {self.thickness}"
                f" for side {self.side_length}"
            )
        expected = self.thickness * (2 * self.side_length - self.thickness)
        if self.area != expected:
            raise ValueError(
                f"area {self.area} != T(2L - T) = {expected} "
                f"for T={self.thickness}, L={self.side_length}"
            )

    @property
    def inner_side(self) -> int:
        """Side of the square left when the gnomon is removed."""
        return self.side_length - self.thickness


@dataclass(frozen=True)
class GnomonPair:
    """The two gnomons of one (possibly scaled) triple over the same square.

    ``odd_gnomon`` sits on the even-leg square and carries the odd leg's
    area; ``even_gnomon`` sits on the odd-leg square and carries the even
    leg's area.  For a scale factor k both side lengths are k*z and the
    areas are (k*x)^2 and (k*y)^2.
    """

    odd_gnomon: Gnomon
    even_gnomon: Gnomon
    triple: PrimitiveTriple

    def __post_init__(self) -> None:
        side = self.odd_gnomon.side_length
        if self.even_gnomon.side_length != side:
            raise ValueError("both gnomons must share one outer square")
        if side % self.triple.z != 0:
            raise ValueError(
                f"outer side {side} is not a multiple of z = {self.triple.z}"
            )
        k = side // self.triple.z
        if self.odd_gnomon.thickness != k * (self.triple.z - self.triple.y):
            raise ValueError("odd gnomon thickness must be k*(z - y)")
        if self.even_gnomon.thickness != k * (self.triple.z - self.triple.x):
            raise ValueError("even gnomon thickness must be k*(z - x)")


@dataclass(frozen=True)
class GnomonProgression:
    """Consecutive odd numbers whose sum is a gnomon's area.

    With first term a and n terms the sum is n(a + n - 1).
    """

    first_term: int
    term_count: int

    def __post_init__(self) -> None:
        if self.first_term < 1 or self.first_term % 2 == 0:
            raise ValueError(f"first term must be odd, got {self.first_term}")
        if self.term_count < 1:
            raise ValueError(f"term count must be positive, got {self.term_count}")

    @property
    def last_term(self) -> int:
        return self.first_term + 2 * (self.term_count - 1)

    @property
    def total(self) -> int:
        return self.term_count * (self.first_term + self.term_count - 1)

    def terms(self) -> range:
        """Materialize the terms lazily."""
        return range(self.first_term, self.last_term + 1, 2)


def gnomon_pair(triple: PrimitiveTriple, k: int = 1) -> GnomonPair:
    """Both gnomons of a triple scaled by k, inside its kz-by-kz square."""
    x, y, z = (k * value for value in triple.values())
    return GnomonPair(
        odd_gnomon=Gnomon(thickness=z - y, side_length=z, area=x * x),
        even_gnomon=Gnomon(thickness=z - x, side_length=z, area=y * y),
        triple=triple,
    )


def scaled_gnomon_pair(general: GeneralTriple) -> GnomonPair:
    """Gnomons of a scaled triple: thicknesses k times the primitive ones."""
    return gnomon_pair(general.base, general.scale)


def progression_on_square(square_side: int, gnomon_thickness: int) -> GnomonProgression:
    """The odd-number progression of a gnomon grown on a given square.

    Starts at 2*square_side + 1 and has one term per unit of thickness, so
    it sums to (square_side + thickness)^2 - square_side^2.
    """
    if square_side < 1:
        raise ValueError(f"square side must be positive, got {square_side}")
    return GnomonProgression(first_term=2 * square_side + 1, term_count=gnomon_thickness)


def pair_progressions(pair: GnomonPair) -> tuple[GnomonProgression, GnomonProgression]:
    """Progressions for (odd-area, even-area) gnomons of a pair."""
    odd = progression_on_square(pair.odd_gnomon.inner_side, pair.odd_gnomon.thickness)
    even = progression_on_square(pair.even_gnomon.inner_side, pair.even_gnomon.thickness)
    return odd, even


def overlap_terms(
    pair: GnomonPair,
) -> tuple[range, GnomonProgression, GnomonProgression]:
    """Shared suffix of the pair's two progressions, plus both progressions.

    Both progressions end at one less than twice the outer side, so the one
    with fewer terms coincides with the tail of the other.  Returns
    (shared terms as a range, longer progression, shorter progression).
    """
    odd, even = pair_progressions(pair)
    # Equal thicknesses would need l^2 = 2t^2, impossible for coprime t, l.
    require(odd.term_count != even.term_count, pair)
    longer, shorter = (odd, even) if odd.term_count > even.term_count else (even, odd)
    suffix_start = longer.first_term + 2 * (longer.term_count - shorter.term_count)
    require(suffix_start == shorter.first_term, pair)
    return shorter.terms(), longer, shorter
