"""L-shaped gnomon decompositions of a triple and their odd-number progressions.

A square of side L splits into a smaller square of side L - T and an
L-shaped gnomon of thickness T with area T(2L - T).  Every triple yields
two such gnomons over the same z-by-z square: one of thickness z - y
carrying area x^2, one of thickness z - x carrying area y^2.  Each gnomon's
area is also the sum of consecutive odd numbers starting just above the
inner square, and both progressions end at 2z - 1, so the shorter one is a
suffix of the longer.
"""

from .errors import ensure, record
from .triples import PrimitiveTriple


@record
class Gnomon:
    """An L-shaped border of thickness T inside a square of side L.

    It is also its odd-number progression: the T odd numbers from
    2(L - T) + 1 to 2L - 1, which sum to its area T(2L - T).
    """

    thickness: int
    side_length: int

    def __post_init__(self) -> None:
        thickness = ensure("thickness", self.thickness, int, 1)
        ensure("side_length", self.side_length, int, thickness)

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


@record
class GeneralTriple:
    """A primitive triple scaled by k, and its two gnomons over the same kz-by-kz square.

    ``odd_gnomon`` sits on the even-leg square and carries the odd leg's
    area (kx)^2; ``even_gnomon`` sits on the odd-leg square and carries the
    even leg's area (ky)^2.
    """

    base: PrimitiveTriple
    scale: int

    def __post_init__(self) -> None:
        ensure("base", self.base, PrimitiveTriple)
        ensure("scale", self.scale, int, 1)

    @property
    def x(self) -> int:
        return self.scale * self.base.x

    @property
    def y(self) -> int:
        return self.scale * self.base.y

    @property
    def z(self) -> int:
        return self.scale * self.base.z

    def values(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    # Unchecked: the legs of a valid triple give 1 <= z - y, z - x < z.
    @property
    def odd_gnomon(self) -> Gnomon:
        k, base = self.scale, self.base
        return Gnomon._unchecked(k * (base.z - base.y), k * base.z)

    @property
    def even_gnomon(self) -> Gnomon:
        k, base = self.scale, self.base
        return Gnomon._unchecked(k * (base.z - base.x), k * base.z)


def scale(triple: PrimitiveTriple, k: int = 1) -> GeneralTriple:
    """Multiply every element of a primitive triple by the coefficient k."""
    return GeneralTriple._unchecked(ensure("triple", triple, PrimitiveTriple), ensure("k", k, int, 1))


# scale under its older name, kept because perfbench/ calls and wraps it.
gnomon_pair = scale


# (pair.odd_gnomon, pair.even_gnomon), kept because perfbench/ calls and wraps it.
def pair_progressions(pair: GeneralTriple) -> tuple[Gnomon, Gnomon]:
    return ensure("pair", pair, GeneralTriple).odd_gnomon, pair.even_gnomon


def overlap_terms(pair: GeneralTriple) -> tuple[range, Gnomon, Gnomon]:
    """Shared suffix of the pair's two progressions, plus both gnomons.

    Both progressions end at one less than twice the outer side, so the one
    with fewer terms coincides with the tail of the other.  Returns
    (shared terms as a range, longer gnomon, shorter gnomon).
    """
    odd, even = ensure("pair", pair, GeneralTriple).odd_gnomon, pair.even_gnomon
    longer, shorter = (odd, even) if odd.thickness > even.thickness else (even, odd)
    return shorter.terms(), longer, shorter
