"""Factoring a generating-square side S and splitting it into (t, l) pairs.

A side is any positive even integer.  Writing S = 2tl with l odd and
gcd(t, l) = 1 forces every factor of 2 into t and each odd prime power of S
entirely into t or entirely into l, so the valid splits correspond exactly
to the subsets of the distinct odd primes of S: there are 2^j of them,
where j counts those primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple


def ensure_side(value: int) -> int:
    """Validate a generating-square side: a positive even integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"side must be an int, got {type(value).__name__}")
    if value < 2 or value % 2 != 0:
        raise ValueError(f"side must be a positive even integer, got {value}")
    return value


class OddFactorProfile(NamedTuple):
    """Complete factorization of a side: 2^two_exponent times odd prime powers.

    ``odd_prime_powers`` holds (prime, exponent) pairs with strictly
    increasing primes and every exponent >= 1.  Only ``factor_side`` builds
    one, so it is not re-checked.
    """

    two_exponent: int
    odd_prime_powers: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Partition:
    """One split S = 2tl with l odd and gcd(t, l) = 1."""

    t: int
    l: int
    side: int

    def __post_init__(self) -> None:
        ensure_side(self.side)
        if self.t < 1 or self.l < 1:
            raise ValueError(f"t and l must be positive, got t={self.t}, l={self.l}")
        if self.l % 2 == 0:
            raise ValueError(f"l must be odd, got l={self.l}")
        if 2 * self.t * self.l != self.side:
            raise ValueError(
                f"2*t*l must equal the side: 2*{self.t}*{self.l} != {self.side}"
            )
        if gcd(self.t, self.l) != 1:
            raise ValueError(f"t and l must be coprime, got t={self.t}, l={self.l}")


def factor_side(side: int) -> OddFactorProfile:
    """Factor a side by trial division up to its square root."""
    remaining = ensure_side(side)
    two_exponent = 0
    while remaining % 2 == 0:
        remaining //= 2
        two_exponent += 1
    odd_powers: list[tuple[int, int]] = []
    prime = 3
    while prime * prime <= remaining:
        if remaining % prime == 0:
            exponent = 0
            while remaining % prime == 0:
                remaining //= prime
                exponent += 1
            odd_powers.append((prime, exponent))
        prime += 2
    if remaining > 1:
        odd_powers.append((remaining, 1))
    return OddFactorProfile(two_exponent, tuple(odd_powers))


def partition_count(side: int) -> int:
    """Number of valid (t, l) splits of a side: 2^j over its distinct odd primes."""
    return 1 << len(factor_side(side).odd_prime_powers)


def split_pairs(side: int) -> list[tuple[int, int]]:
    """All (t, l) splits of a side as plain pairs, sorted by strictly increasing t.

    l runs over the products of subsets of the odd prime-power components;
    t takes everything else, including all factors of 2.
    """
    ls = [1]
    for prime, exponent in factor_side(side).odd_prime_powers:
        atom = prime**exponent
        ls += [l * atom for l in ls]
    return sorted((side // (2 * l), l) for l in ls)


def enumerate_partitions(side: int) -> list[Partition]:
    """All (t, l) splits of a side as validated Partitions, sorted by t."""
    return [Partition(t=t, l=l, side=side) for t, l in split_pairs(side)]
