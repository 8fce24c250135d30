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
    """A primitive Pythagorean triple with the even leg stored as y."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if self.x < 1 or self.y < 1 or self.z < 1:
            raise ValueError(f"triple elements must be positive: {self}")
        if self.x % 2 != 1 or self.y % 2 != 0:
            raise ValueError(f"x must be odd and y even: {self}")
        if self.x * self.x + self.y * self.y != self.z * self.z:
            raise ValueError(f"not a Pythagorean triple: {self}")
        if gcd(self.x, self.y) != 1:
            raise ValueError(f"legs share a common factor: {self}")

    def values(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class GeneralTriple:
    """A primitive triple scaled by a positive integer coefficient."""

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


def split_triple(s: int, t: int, l: int) -> tuple[int, int, int]:
    """(x, y, z) generated by a split S = 2tl, unchecked: the caller vouches for it."""
    x = s + l * l
    y = s + 2 * t * t
    return x, y, x + y - s


def construct(partition: Partition) -> PrimitiveTriple:
    """Build the primitive triple generated by a (t, l) split of S."""
    return PrimitiveTriple(*split_triple(partition.side, partition.t, partition.l))


def _sorted_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Order three positive integers as (leg, leg, hypotenuse) or fail."""
    for value in (a, b, c):
        if value < 1:
            raise ValueError(f"triple elements must be positive, got {value}")
    first, second, z = sorted((a, b, c))
    if first * first + second * second != z * z:
        raise NotATripleError(f"{a}^2 + {b}^2 != {c}^2 for any ordering")
    return first, second, z


def invert(a: int, b: int, c: int) -> Partition:
    """Recover the (S, t, l) split of a primitive triple given in any leg order.

    Strict: a triple with a common factor raises NotPrimitiveError; use
    decompose_general for those.
    """
    first, second, z = _sorted_triple(a, b, c)
    common = gcd(first, second)
    if common > 1:
        raise NotPrimitiveError(
            f"({a}, {b}, {c}) has common factor {common}; not primitive"
        )
    if first % 2 == 1 and second % 2 == 0:
        x, y = first, second
    elif first % 2 == 0 and second % 2 == 1:
        x, y = second, first
    else:
        # Coprime legs of a genuine triple have opposite parity.
        raise MalformedTripleError(f"expected exactly one even leg in ({a}, {b}, {c})")
    l = isqrt(z - y)
    if l * l != z - y:
        raise MalformedTripleError(f"z - y = {z - y} is not a perfect square")
    if l % 2 == 0:
        raise MalformedTripleError(f"z - y = {z - y} has an even square root")
    s = x - l * l
    if s <= 0:
        raise MalformedTripleError(f"x - l^2 = {s} is not positive")
    if s % (2 * l) != 0:
        raise MalformedTripleError(f"side {s} is not divisible by 2l = {2 * l}")
    try:
        return Partition(t=s // (2 * l), l=l, side=s)
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
