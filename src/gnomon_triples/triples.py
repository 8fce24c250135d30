"""Forward and inverse maps between (S, t, l) splits and Pythagorean triples.

Forward construction from a split of the side S = 2tl:

    y = S + 2t^2        (even leg)
    x = S + l^2         (odd leg)
    z = S + 2t^2 + l^2  (hypotenuse, equal to x + y - S)

The inverse reads the split straight off a primitive triple:
z - y is the perfect square l^2, then x - l^2 = S and t = S / (2l).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import MalformedTripleError, NotATripleError, NotPrimitiveError
from .partitions import Partition


@dataclass(frozen=True)
class PrimitiveTriple:
    """A primitive Pythagorean triple with the odd leg stored as x, the even leg as y.

    The one definition of a primitive triple: code holding one trusts it.
    """

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        if x < 1 or y < 1 or z < 1:
            raise ValueError(f"triple elements must be positive: {self}")
        if x * x + y * y != z * z:
            raise NotATripleError(f"{x}^2 + {y}^2 != {z}^2")
        common = gcd(x, y)
        if common > 1:
            raise NotPrimitiveError(
                f"({x}, {y}, {z}) has common factor {common}; not primitive"
            )
        if x % 2 != 1:
            raise ValueError(f"x must be odd and y even: {self}")

    def values(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


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


@dataclass(frozen=True)
class GeneralTriple:
    """A primitive triple scaled by k, and its two gnomons over the same kz-by-kz square.

    ``odd_gnomon`` sits on the even-leg square and carries the odd leg's
    area (kx)^2; ``even_gnomon`` sits on the odd-leg square and carries the
    even leg's area (ky)^2.
    """

    base: PrimitiveTriple
    scale: int

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")

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

    @property
    def odd_gnomon(self) -> Gnomon:
        return Gnomon(self.z - self.y, self.z)

    @property
    def even_gnomon(self) -> Gnomon:
        return Gnomon(self.z - self.x, self.z)


def split_triple(s: int, t: int, l: int) -> tuple[int, int, int]:
    """(x, y, z) generated by a split S = 2tl, unchecked: the caller vouches for it."""
    x = s + l * l
    y = s + 2 * t * t
    return x, y, x + y - s


def split_of(x: int, y: int, z: int) -> tuple[int, int, int]:
    """(S, t, l) of a primitive triple, unchecked: the inverse of split_triple."""
    l = isqrt(z - y)
    s = x - l * l
    return s, s // (2 * l), l


def construct(partition: Partition) -> PrimitiveTriple:
    """Build the primitive triple generated by a (t, l) split of S."""
    return PrimitiveTriple(*split_triple(partition.side, partition.t, partition.l))


def invert(a: int, b: int, c: int) -> Partition:
    """Recover the (S, t, l) split of a primitive triple given in any leg order.

    Strict: a triple with a common factor raises NotPrimitiveError; use
    decompose_general for those.
    """
    first, second, z = sorted((a, b, c))
    if first % 2 < second % 2:
        first, second = second, first
    s, t, l = split_of(*PrimitiveTriple(first, second, z).values())
    try:
        return Partition(t=t, l=l, side=s)
    except ValueError as exc:
        raise MalformedTripleError(str(exc)) from exc


def decompose_general(a: int, b: int, c: int) -> tuple[int, Partition]:
    """Split any Pythagorean triple into its gcd and the split of its core.

    Returns (k, partition) where k is the common factor and the partition
    inverts the reduced primitive triple.
    """
    for value in (a, b, c):
        if value < 1:
            raise ValueError(f"triple elements must be positive, got {value}")
    k = gcd(gcd(a, b), c)
    return k, invert(a // k, b // k, c // k)


def scale(triple: PrimitiveTriple, k: int) -> GeneralTriple:
    """Multiply every element of a primitive triple by the coefficient k."""
    return GeneralTriple(base=triple, scale=k)
