"""Forward and inverse maps between (S, t, l) splits and Pythagorean triples.

Forward construction from a split of the side S = 2tl:

    y = S + 2t^2        (even leg)
    x = S + l^2         (odd leg)
    z = S + 2t^2 + l^2  (hypotenuse, equal to x + y - S)

The inverse orders the legs with from_legs, then reads the split off the triple:
z - y is the perfect square l^2, then x - l^2 = S and t = S / (2l).
"""

from math import gcd, isqrt

from .errors import MalformedTripleError, NotATripleError, NotPrimitiveError, ensure, record, shown
from .partitions import Partition


@record
class PrimitiveTriple:
    """A primitive Pythagorean triple with the odd leg stored as x, the even leg as y.

    The one definition of a primitive triple: code holding one trusts it.
    """

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        x, y, z = (ensure("x", self.x, int, 1), ensure("y", self.y, int, 1),
                   ensure("z", self.z, int, 1))
        if x * x + y * y != z * z:
            raise NotATripleError(f"{shown(x)}^2 + {shown(y)}^2 != {shown(z)}^2")
        common = gcd(x, y)
        if common > 1:
            legs = ", ".join(map(shown, (x, y, z)))
            raise NotPrimitiveError(f"({legs}) has common factor {shown(common)}; not primitive")
        if x % 2 != 1:
            raise ValueError(f"x must be odd and y even: {self}")

    def values(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def split_of(x: int, y: int, z: int) -> tuple[int, int, int]:
    """(S, t, l) of a primitive triple, unchecked: the inverse of construct."""
    l = isqrt(z - y)
    s = x - l * l
    return s, s // (2 * l), l


def construct(partition: Partition) -> PrimitiveTriple:
    """Build the primitive triple of a (t, l) split of S; a Partition's triple needs no check."""
    s, t, l = ensure("partition", partition, Partition).side, partition.t, partition.l
    return PrimitiveTriple._unchecked(s + l * l, s + 2 * t * t, s + 2 * t * t + l * l)


def from_legs(a: int, b: int, c: int) -> PrimitiveTriple:
    """The primitive triple whose legs are given in any order: odd leg, even leg, z."""
    try:
        first, second, z = sorted((a, b, c))
        if first % 2 < second % 2:
            first, second = second, first
        return PrimitiveTriple(first, second, z)
    except (TypeError, ValueError):  # a leg that is no positive int: name it as it was passed
        for name, value in zip("abc", (a, b, c)):
            ensure(name, value, int, 1)
        raise


def invert(a: int, b: int, c: int) -> Partition:
    """Recover the (S, t, l) split of a primitive triple given in any leg order.

    Strict: a triple with a common factor raises NotPrimitiveError; use
    decompose_general for those.
    """
    s, t, l = split_of(*from_legs(a, b, c).values())
    try:
        return Partition(t=t, l=l, side=s)
    except ValueError as exc:
        raise MalformedTripleError(str(exc)) from exc


def decompose_general(a: int, b: int, c: int) -> tuple[int, Partition]:
    """Split any Pythagorean triple into its gcd and the split of its core.

    Returns (k, partition) where k is the common factor and the partition
    inverts the reduced primitive triple.
    """
    for name, value in zip("abc", (a, b, c)):
        ensure(name, value, int, 1)
    k = gcd(gcd(a, b), c)
    return k, invert(a // k, b // k, c // k)

