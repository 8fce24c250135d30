"""Factoring a generating-square side S and splitting it into (t, l) pairs.

A side is any positive even integer.  Writing S = 2tl with l odd and
gcd(t, l) = 1 forces every factor of 2 into t and each odd prime power of S
entirely into t or entirely into l, so the valid splits correspond exactly
to the subsets of the distinct odd primes of S: there are 2^j of them,
where j counts those primes.

One factoring layer serves both ways in.  A window of sides is factored by one segmented sieve of
Eratosthenes over its half-sides, with the odd primes up to
min(sqrt(S/2), 2^16).  A single side has the primes up to 2^10 divided
out, and the rest of the primes up to 2^16 only while its cofactor is past
the exact bound below.  Both hand the cofactor left over to one finisher.
A cofactor with no prime factor up to a bound b is prime when it is below
(b + 1)^2; otherwise deterministic Miller-Rabin decides, with the first k
prime bases below psi_k of OEIS A014233 (Jaeschke 1993; Sorenson and Webster
2015, arXiv:1509.00864, up to psi_13 = 3 317 044 064 679 887 385 961 981),
and Brent's rho (BIT 20, 1980) splits a composite.  A cofactor at or above
psi_13 is refused with ``SizeLimitError``: past it, primality is not proven.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import compress
from math import gcd, isqrt
from typing import Iterable, Iterator

from .errors import SizeLimitError, ensure, require

BASE_PRIME_CAP = 2**16
# The primes a single side always has divided out before the finisher.
POINT_PRIME_CAP = 2**10
# Half-sides per sieve segment: each segment loops over every base prime up to the
# bound, so a far window (1001 sides) pays for the 6542 primes up to 2^16 once.
SEGMENT_LENGTH = 1024
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_1 .. psi_12 of OEIS A014233: below psi_k the first k prime bases are exact, and
# below psi_1 = 2047 base 2 alone is, so n takes one base more than the psi_k <= n.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
       341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
       318665857834031151167461)
PSI_13 = 3_317_044_064_679_887_385_961_981


def ensure_side(value: int) -> int:
    """Validate a generating-square side: a positive even integer."""
    if ensure("side", value, int) < 2 or value % 2 != 0:
        raise ValueError(f"side must be a positive even integer, got {value}")
    return value


@dataclass(frozen=True)
class Partition:
    """One split S = 2tl with l odd and gcd(t, l) = 1."""

    t: int
    l: int
    side: int

    def __post_init__(self) -> None:
        ensure_side(self.side)
        if ensure("t", self.t, int) < 1 or ensure("l", self.l, int) < 1:
            raise ValueError(f"t and l must be positive, got t={self.t}, l={self.l}")
        if self.l % 2 == 0:
            raise ValueError(f"l must be odd, got l={self.l}")
        if 2 * self.t * self.l != self.side:
            raise ValueError(
                f"2*t*l must equal the side: 2*{self.t}*{self.l} != {self.side}"
            )
        if gcd(self.t, self.l) != 1:
            raise ValueError(f"t and l must be coprime, got t={self.t}, l={self.l}")


@cache
def _base_primes() -> array:
    """The odd primes up to BASE_PRIME_CAP, sieved once on first use."""
    sieve = bytearray([1]) * (BASE_PRIME_CAP + 1)
    for p in range(3, isqrt(BASE_PRIME_CAP) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, BASE_PRIME_CAP + 1, 2 * p)))
    return array("H", compress(range(3, BASE_PRIME_CAP + 1, 2), sieve[3::2]))


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases n's size needs (see PSI); exact for odd 2 < n < PSI_13."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in MILLER_RABIN_BASES[: bisect_right(PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's rho.

    The maps y -> y^2 + c are tried from y = 2 for c = 1 .. 16, so a run is
    reproducible; no composite measured needed c > 3, and a prime fails require.
    """
    batch = 128
    for c in range(1, 17):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g
    require(False, n)


def _finish(cofactor: int, bound: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of a cofactor > 1 with no prime factor up to bound."""
    if cofactor < (bound + 1) ** 2:
        return [(cofactor, 1)]
    if cofactor >= PSI_13:
        raise SizeLimitError(
            f"factor {cofactor} is left after removing the primes up to {bound}; "
            f"primality is proven exact only below {PSI_13}"
        )
    if _is_prime(cofactor):
        return [(cofactor, 1)]
    root = isqrt(cofactor)
    if root * root == cofactor:  # rho would take as long on p^2 as on p * q
        return [(p, 2 * e) for p, e in _finish(root, bound)]
    d = _rho(cofactor)
    exponents: dict[int, int] = {}
    for part in (d, cofactor // d):
        for p, e in _finish(part, bound):
            exponents[p] = exponents.get(p, 0) + e
    return sorted(exponents.items())


def factor_window(from_s: int, to_s: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """(side, odd (prime, exponent) pairs) for every side in [from_s, to_s], in order.

    One segmented sieve over the half-sides: each segment of SEGMENT_LENGTH
    half-sides is factored by the odd primes up to min(sqrt(to_s/2), 2^16),
    lazily, so a side's factors come without touching later segments.
    """
    ensure_side(from_s)
    ensure_side(to_s)
    if from_s > to_s:
        raise ValueError(f"empty side range: {from_s} > {to_s}")
    first, last = from_s // 2, to_s // 2
    bound = min(isqrt(last), BASE_PRIME_CAP)
    primes = _base_primes()[: bisect_right(_base_primes(), bound)]
    for start in range(first, last + 1, SEGMENT_LENGTH):
        halves = range(start, min(start + SEGMENT_LENGTH, last + 1))
        rests = [h >> ((h & -h).bit_length() - 1) for h in halves]
        # tuples, not lists: a segment of 1024 lists keeps the garbage collector busy
        found: list[tuple[tuple[int, int], ...]] = [()] * len(halves)
        for p in primes:
            for i in range(-start % p, len(halves), p):
                n = rests[i] // p
                exponent = 1
                while n % p == 0:
                    n //= p
                    exponent += 1
                rests[i] = n
                found[i] += ((p, exponent),)
        for h, n, powers in zip(halves, rests, found):
            yield 2 * h, (powers + tuple(_finish(n, bound)) if n > 1 else powers)


def factor_side(side: int) -> tuple[tuple[int, int], ...]:
    """The side's odd (prime, exponent) pairs by increasing prime.

    Divides out the primes up to POINT_PRIME_CAP, or all base primes while
    the cofactor is at least PSI_13, stopping early once it is 1 or prime.
    """
    n = ensure_side(side) // (side & -side)
    found = []
    bound = BASE_PRIME_CAP
    for p in _base_primes():
        if p * p > n or (p > POINT_PRIME_CAP and n < PSI_13):
            bound = p - 1
            break
        if n % p == 0:
            n //= p
            exponent = 1
            while n % p == 0:
                n //= p
                exponent += 1
            found.append((p, exponent))
    if n > 1:
        found += _finish(n, bound)
    return tuple(found)


def partition_count(side: int) -> int:
    """Number of valid (t, l) splits of a side: 2^j over its distinct odd primes."""
    return 1 << len(factor_side(side))


def odd_parts(odd_powers: Iterable[tuple[int, int]]) -> list[int]:
    """Every l of a side from its odd (prime, exponent) pairs, largest first.

    l runs over the products of subsets of the odd prime-power components;
    t = S/(2l) takes everything else, including all factors of 2, so t
    rises as l falls and the list is the side's splits by increasing t.
    """
    ls = [1]
    for prime, exponent in odd_powers:
        atom = prime**exponent
        ls += [l * atom for l in ls]
    ls.sort(reverse=True)
    return ls


def enumerate_partitions(side: int) -> list[Partition]:
    """All (t, l) splits of a side as validated Partitions, sorted by t."""
    return [Partition(t=side // (2 * l), l=l, side=side) for l in odd_parts(factor_side(side))]
