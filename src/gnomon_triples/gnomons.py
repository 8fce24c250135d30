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
    """An L-shaped border of thickness T inside a square of side L.

    It is also its odd-number progression: the T odd numbers from
    2(L - T) + 1 to 2L - 1, which sum to its area T(2L - T).
    """

    thickness: int
    side_length: int

    def __post_init__(self) -> None:
        if not 0 < self.thickness <= self.side_length:
            raise ValueError(
                f"thickness must lie in 1..side_length, got {self.thickness}"
                f" for side {self.side_length}"
            )

    @property
    def area(self) -> int:
        return self.thickness * (2 * self.side_length - self.thickness)

    @property
    def first_term(self) -> int:
        return 2 * (self.side_length - self.thickness) + 1

    @property
    def last_term(self) -> int:
        return 2 * self.side_length - 1

    def terms(self) -> range:
        """The odd-number progression, lazily."""
        return range(self.first_term, 2 * self.side_length, 2)


class GnomonPair(GeneralTriple):
    """The two gnomons of a triple scaled by k, over the same kz-by-kz square.

    ``odd_gnomon`` sits on the even-leg square and carries the odd leg's
    area (kx)^2; ``even_gnomon`` sits on the odd-leg square and carries the
    even leg's area (ky)^2.
    """

    @property
    def odd_gnomon(self) -> Gnomon:
        return Gnomon(self.z - self.y, self.z)

    @property
    def even_gnomon(self) -> Gnomon:
        return Gnomon(self.z - self.x, self.z)


def gnomon_pair(triple: PrimitiveTriple, k: int = 1) -> GnomonPair:
    """Both gnomons of a triple scaled by k, inside its kz-by-kz square."""
    return GnomonPair(triple, k)


def scaled_gnomon_pair(general: GeneralTriple) -> GnomonPair:
    """Gnomons of a scaled triple: thicknesses k times the primitive ones."""
    return GnomonPair(general.base, general.scale)


def pair_progressions(pair: GnomonPair) -> tuple[Gnomon, Gnomon]:
    """The (odd-area, even-area) gnomons of a pair, each its own progression."""
    return pair.odd_gnomon, pair.even_gnomon


def overlap_terms(pair: GnomonPair) -> tuple[range, Gnomon, Gnomon]:
    """Shared suffix of the pair's two progressions, plus both gnomons.

    Both progressions end at one less than twice the outer side, so the one
    with fewer terms coincides with the tail of the other.  Returns
    (shared terms as a range, longer gnomon, shorter gnomon).
    """
    odd, even = pair_progressions(pair)
    # Equal thicknesses would need l^2 = 2t^2, impossible for coprime t, l.
    require(odd.thickness != even.thickness, pair)
    longer, shorter = (odd, even) if odd.thickness > even.thickness else (even, odd)
    return shorter.terms(), longer, shorter
