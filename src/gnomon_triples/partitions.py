"""Factoring a generating-square side S and splitting it into (t, l) pairs.

A side is any positive even integer.  Writing S = 2tl with l odd and
gcd(t, l) = 1 forces every factor of 2 into t and each odd prime power of S
entirely into t or entirely into l, so the valid splits correspond exactly
to the subsets of the distinct odd primes of S: there are 2^j of them,
where j counts those primes.

One factoring layer serves both ways in.  A window of sides is factored by
one segmented sieve of Eratosthenes over its half-sides, with the odd primes
up to sqrt(S/2) for its last side while that is at most 2^18 and the window
is wide enough to repay the primes past 2^16, so every cofactor left is 1 or
a prime, and with those up to 2^16 otherwise.  A single side has the primes
up to 2^10 divided out, and the rest of the primes up to 2^16 only while its
cofactor is past the exact bound below.  Both read one cached table of odd
primes per power-of-two cap and hand the cofactor left to one finisher.
A cofactor with no prime factor up to a bound b is prime when it is below
(b + 1)^2; otherwise deterministic Miller-Rabin decides, with the first k
prime bases below psi_k of OEIS A014233 (Jaeschke 1993; Sorenson and Webster
2015, arXiv:1509.00864, up to psi_13 = 3 317 044 064 679 887 385 961 981),
and Brent's rho (BIT 20, 1980) splits a composite.  A cofactor at or above
psi_13 is refused with ``SizeLimitError``: past it, primality is not proven.
"""

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import chain, compress, islice
from math import gcd, isqrt, prod

from .errors import SizeLimitError, ensure, record, require, shown

BASE_PRIME_CAP = 2**16
# A window with every half-side below (ROOT_PRIME_CAP + 1)^2 is sieved to their square root once
# (last - first) * (last >> 32) reaches ROOT_SIEVE_WORK: the finisher work saved repays the primes.
ROOT_PRIME_CAP = 2**18
ROOT_SIEVE_WORK = 2**13
# The primes a single side always has divided out before the finisher.
POINT_PRIME_CAP = 2**10
# Half-sides per sieve segment: the primes past it are screened once per segment, so a
# window of 1001 sides near 10^11 screens its 19 738 primes from 1024 to 223 606 once.
SEGMENT_LENGTH = 1024
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_1 .. psi_12 of OEIS A014233: below psi_k the first k prime bases are exact, and
# below psi_1 = 2047 base 2 alone is, so n takes one base more than the psi_k <= n.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
       341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
       318665857834031151167461)
PSI_13 = 3_317_044_064_679_887_385_961_981


def ensure_side(value: int, name: str = "side") -> int:
    """Validate a generating-square side, named name: a positive even integer."""
    if ensure(ensure("name", name, str), value, int, 2) % 2 != 0:
        raise ValueError(f"{name} must be a positive even integer, got {shown(value)}")
    return value


@record
class Partition:
    """One split S = 2tl with l odd and gcd(t, l) = 1."""

    t: int
    l: int
    side: int

    def __post_init__(self) -> None:
        side = ensure_side(self.side)
        t, l = ensure("t", self.t, int, 1), ensure("l", self.l, int, 1)
        if l % 2 == 0:
            raise ValueError(f"l must be odd, got l={shown(l)}")
        if 2 * t * l != side:
            raise ValueError(f"2*t*l must equal the side: 2*{shown(t)}*{shown(l)} != {shown(side)}")
        if gcd(t, l) != 1:
            raise ValueError(f"t and l must be coprime, got t={shown(t)}, l={shown(l)}")


@cache
def _odd_primes(cap: int) -> array:
    """The odd primes below cap, sieved once per cap on first use."""
    sieve = bytearray([1]) * ((cap - 1) // 2)  # sieve[i] stands for 2i + 3
    for p in range(3, isqrt(cap) + 1, 2):
        if sieve[p // 2 - 1]:
            sieve[p * p // 2 - 1 :: p] = bytes(len(range(p * p // 2 - 1, len(sieve), p)))
    return array("I", compress(range(3, cap, 2), sieve))


@cache
def _point_primes_product() -> int:
    """The product of the odd primes up to POINT_PRIME_CAP: one gcd finds a side's."""
    return prod(_odd_primes(POINT_PRIME_CAP))


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases n's size needs (see PSI); exact for odd 2 < n < PSI_13."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in MILLER_RABIN_BASES[: bisect_right(PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        # more squarings never meet n - 1: a^(n-1) = -1 (mod n) would force 2^(s+1) | n - 1
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's rho.

    The maps y -> y^2 + c are tried from y = 2 for c = 1 .. 16, each until r passes
    8 n^(1/4); no composite measured passed n^(1/4) or c = 3, and a prime fails require.
    """
    batch, limit = 128, 8 * isqrt(isqrt(n))
    for c in range(1, 17):
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and r <= limit:
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
        if g == n:  # the batch overshot: redo it one step at a time, within one batch
            for _ in range(batch):
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
                if g > 1:
                    break
            require(g > 1, n)
        if 1 < g < n:
            return g
    require(False, n)


def _finish(cofactor: int, bound: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of a cofactor > 1 with no prime factor up to bound."""
    if cofactor < (bound + 1) ** 2:
        return [(cofactor, 1)]
    if cofactor >= PSI_13:
        raise SizeLimitError(
            f"factor {shown(cofactor)} is left after removing the primes up to {bound}; "
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
    half-sides is factored by the odd primes up to sqrt(to_s/2) while that is
    at most ROOT_PRIME_CAP and the window is wide enough for ROOT_SIEVE_WORK,
    so each rest left is 1 or a prime, and by those up to BASE_PRIME_CAP
    otherwise, lazily, a segment at a time, from the table for the power of
    two at or above that bound.  A prime past the segment length divides at
    most one half-side of a segment: one modulo screens it, and only a prime
    that hits divides.
    """
    ensure_side(from_s, "from_s")
    ensure("to_s", ensure_side(to_s, "to_s"), int, from_s)
    first, last = from_s // 2, to_s // 2
    root = last < (ROOT_PRIME_CAP + 1) ** 2 and (last - first) * (last >> 32) >= ROOT_SIEVE_WORK
    bound = min(isqrt(last), ROOT_PRIME_CAP if root else BASE_PRIME_CAP)
    primes = _odd_primes(1 << (bound - 1).bit_length())  # a power of two: few tables are cached
    split, end = bisect_right(primes, min(bound, SEGMENT_LENGTH)), bisect_right(primes, bound)
    small = primes[:split]
    for start in range(first, last + 1, SEGMENT_LENGTH):
        halves = range(start, min(start + SEGMENT_LENGTH, last + 1))
        size = len(halves)
        rests = [h >> ((h & -h).bit_length() - 1) for h in halves]
        # tuples, not lists: a segment of 1024 lists keeps the garbage collector busy
        found: list[tuple[tuple[int, int], ...]] = [()] * size
        minus_start = -start  # one negation per segment, not one per prime screened
        hits = [p for p in islice(primes, split, end) if minus_start % p < size]
        for p in chain(small, hits):
            for i in range(minus_start % p, size, p):
                n = rests[i] // p
                exponent = 1
                while n % p == 0 and n:  # a rest of 0 is a fault, and found below
                    n //= p
                    exponent += 1
                rests[i] = n
                found[i] += ((p, exponent),)
        require(all(rests), start)
        for h, n, powers in zip(halves, rests, found):
            yield 2 * h, (powers + tuple(_finish(n, bound)) if n > 1 else powers)


def factor_side(side: int) -> tuple[tuple[int, int], ...]:
    """The side's odd (prime, exponent) pairs by increasing prime.

    Divides out the primes up to POINT_PRIME_CAP that one gcd finds in it, or
    all base primes while the cofactor is at least PSI_13, stopping early once it is 1 or prime.
    """
    n = ensure_side(side) // (side & -side)
    small = gcd(n, _point_primes_product())  # the product of n's primes up to the cap
    found = []
    bound = BASE_PRIME_CAP
    for p in _odd_primes(BASE_PRIME_CAP):
        if p * p > n or (small == 1 and n < PSI_13):
            # n has no prime factor below p, nor, once small is 1, up to the cap
            bound = max(p - 1, POINT_PRIME_CAP if small == 1 else 0)
            break
        if n % p == 0:
            small //= gcd(small, p)
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
        for l in tuple(ls):  # a loop, not a comprehension: no frame per prime before 3.12
            ls.append(l * atom)
    ls.sort(reverse=True)
    return ls


def enumerate_partitions(side: int) -> list[Partition]:
    """All (t, l) splits of a side as validated Partitions, sorted by t."""
    return [Partition(t=side // (2 * l), l=l, side=side) for l in odd_parts(factor_side(side))]
