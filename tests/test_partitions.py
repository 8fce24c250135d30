"""Side factorization and (t, l) split enumeration."""

from itertools import combinations
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gnomon_triples import partitions
from gnomon_triples.errors import SizeLimitError
from gnomon_triples.partitions import (
    PSI_13,
    Partition,
    ensure_side,
    enumerate_partitions,
    factor_side,
    factor_window,
    odd_parts,
    partition_count,
)


# The distinct psi_k of OEIS A014233 for k = 1 .. 12 (psi_7 = psi_8, psi_9 = psi_10 = psi_11).
DISTINCT_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 3825123056546413051, 318665857834031151167461)


def brute_force_splits(side: int) -> list[tuple[int, int]]:
    """Independent oracle: scan every (t, l) with 2tl = S, l odd, coprime."""
    found = []
    for t in range(1, side // 2 + 1):
        if side % (2 * t) == 0:
            l = side // (2 * t)
            if l % 2 == 1 and gcd(t, l) == 1:
                found.append((t, l))
    return found


class TestEnsureSide:
    def test_accepts_even_positives(self):
        assert ensure_side(2) == 2
        assert ensure_side(9996) == 9996

    @pytest.mark.parametrize("bad", [0, -2, 1, 3, 15])
    def test_rejects_odd_or_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ensure_side(bad)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            ensure_side(2.0)
        with pytest.raises(TypeError):
            ensure_side(True)


class TestFactorSide:
    def test_power_of_two_has_no_odd_part(self):
        assert factor_side(2) == ()

    def test_two_odd_primes(self):
        assert factor_side(30) == ((3, 1), (5, 1))

    def test_prime_power_collapses_to_one_entry(self):
        assert factor_side(48) == ((3, 1),)
        # 1031 is the first prime a point does not always divide out
        assert factor_side(2 * 1031**2) == ((1031, 2),)

    def test_profile_reconstructs_the_side(self):
        for side in range(2, 5000, 2):
            product = side & -side  # the side's power of 2
            for prime, exponent in factor_side(side):
                product *= prime**exponent
            assert product == side

    def test_matches_independent_factorization(self):
        for side in range(2, 2000, 2):
            reference = sympy.factorint(side)
            reference.pop(2)
            # increasing odd primes, each exponent >= 1, exactly as sympy has them
            assert factor_side(side) == tuple(sorted(reference.items()))


class TestPartitionCount:
    @pytest.mark.parametrize("side,count", [(32, 1), (30, 4), (2, 1), (3280, 4)])
    def test_known_counts(self, side, count):
        assert partition_count(side) == count

    def test_power_law_over_range(self):
        for side in range(2, 2000, 2):
            odd_primes = [p for p in sympy.factorint(side) if p != 2]
            assert partition_count(side) == 2 ** len(odd_primes)


class TestEnumeratePartitions:
    def test_four_splits_of_30(self):
        assert [(p.t, p.l) for p in enumerate_partitions(30)] == [
            (1, 15),
            (3, 5),
            (5, 3),
            (15, 1),
        ]

    def test_single_split_of_16(self):
        assert [(p.t, p.l) for p in enumerate_partitions(16)] == [(8, 1)]

    def test_two_splits_of_12(self):
        assert [(p.t, p.l) for p in enumerate_partitions(12)] == [(2, 3), (6, 1)]

    def test_matches_brute_force_scan(self):
        for side in range(2, 2000, 2):
            got = [(p.t, p.l) for p in enumerate_partitions(side)]
            assert got == brute_force_splits(side), side

    def test_count_and_invariants(self):
        for side in range(2, 2000, 2):
            parts = enumerate_partitions(side)
            assert len(parts) == partition_count(side)
            previous_t = 0
            for p in parts:
                assert 2 * p.t * p.l == side
                assert p.l % 2 == 1
                assert gcd(p.t, p.l) == 1
                assert p.t > previous_t
                previous_t = p.t


class TestPartitionValidation:
    def test_rejects_even_l(self):
        with pytest.raises(ValueError):
            Partition(t=1, l=2, side=4)

    def test_rejects_mismatched_side(self):
        with pytest.raises(ValueError):
            Partition(t=1, l=1, side=4)
        with pytest.raises(TypeError, match="side must be an int"):
            Partition(t=1, l=1, side=2.0)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            Partition(t=3, l=3, side=18)

    def test_rejects_nonpositive(self):
        for t, l in ((0, 1), (1, 0), (-1, -1)):  # -1 * -1 passes every other check
            with pytest.raises(ValueError, match="must be positive"):
                Partition(t=t, l=l, side=2)
        for t, l, name in ((True, 1, "t"), (1, True, "l"), (1.0, 1, "t")):  # 2*t*l == 2 for all
            with pytest.raises(TypeError, match=f"{name} must be an int"):
                Partition(t=t, l=l, side=2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=50_000_000))
def test_random_sides_obey_the_power_law(half_side):
    side = 2 * half_side
    parts = enumerate_partitions(side)
    odd_primes = [p for p in sympy.factorint(side) if p != 2]
    assert len(parts) == 2 ** len(odd_primes)
    for p in parts:
        assert 2 * p.t * p.l == side and p.l % 2 == 1 and gcd(p.t, p.l) == 1
    assert [p.t for p in parts] == sorted({p.t for p in parts})


def odd_factorint(side: int) -> tuple[tuple[int, int], ...]:
    """sympy's factorization of a side without its 2s, as factor_side gives it."""
    reference = sympy.factorint(side)
    reference.pop(2, None)
    return tuple(sorted(reference.items()))


def sieved(from_s: int, to_s: int, segment: int = 7) -> list:
    """The window sieve's output, with segments short enough to cross many."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "SEGMENT_LENGTH", segment)
        return list(factor_window(from_s, to_s))


@st.composite
def known_factorizations(draw):
    """(odd n < 10^24, its factorization), built from sympy primes.

    A semiprime p*q or a prime power below 10^21, times an odd cofactor
    below 1000.  The
    factorization is known by construction, which is what sympy.factorint
    would return without factoring anything big.  The smaller prime of a
    semiprime stays below 10^8, which keeps rho's cost small.
    """
    if draw(st.booleans()):
        p = sympy.nextprime(draw(st.integers(2, 10**8)))
        q = sympy.nextprime(draw(st.integers(p, 10**21 // p)))
        powers = {p: 1}
        powers[q] = powers.get(q, 0) + 1
    else:
        p = sympy.nextprime(draw(st.integers(2, 10**12)))
        exponent = 1
        while p ** (exponent + 1) < 10**21 and draw(st.booleans()):
            exponent += 1
        powers = {p: exponent}
    small = 2 * draw(st.integers(0, 499)) + 1
    for prime, exponent in sympy.factorint(small).items():
        powers[prime] = powers.get(prime, 0) + exponent
    n = 1
    for prime, exponent in powers.items():
        n *= prime**exponent
    return n, tuple(sorted(powers.items()))


class TestOddParts:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 14).flatmap(lambda e: st.integers(1, 5 * 10**e)))
    def test_ls_are_the_splits_by_increasing_t(self, half_side):
        side = 2 * half_side
        ls = odd_parts(odd_factorint(side))
        atoms = [p**e for p, e in sympy.factorint(side).items() if p != 2]
        assert len(ls) == 2 ** len(atoms)
        assert all(a > b for a, b in zip(ls, ls[1:]))
        subsets = (prod(c) for r in range(len(atoms) + 1) for c in combinations(atoms, r))
        assert [(side // (2 * l), l) for l in ls] == sorted((side // (2 * l), l) for l in subsets)


class TestFactoringLayer:
    """factor_side (small primes, then Miller-Rabin and rho) and the window sieve."""

    @settings(max_examples=80, deadline=None)
    @given(known_factorizations(), st.integers(1, 5))
    def test_point_and_window_match_the_known_factorization(self, known, twos):
        n, powers = known
        side = n << twos
        assert factor_side(side) == powers
        assert sieved(side, side) == [(side, powers)]

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 251, 1021, 1031, 65521, 65537, 65539])
        | st.integers(2, 2 * 10**6).map(sympy.nextprime),
        st.integers(-9, 9),
        st.integers(0, 20),
    )
    def test_windows_around_a_prime_square(self, prime, offset, width):
        first = max(1, prime * prime + offset)
        from_s, to_s = 2 * first, 2 * (first + width)
        expected = [(side, odd_factorint(side)) for side in range(from_s, to_s + 1, 2)]
        assert sieved(from_s, to_s) == expected

    @pytest.mark.parametrize("prime", [3, 65521, 65537])
    @pytest.mark.parametrize("first, last", [(0, 0), (-1, 1), (-3, 0), (0, 5), (1, 1), (-1, -1), (-7, 7)])
    def test_windows_that_start_end_or_straddle_a_prime_square(self, prime, first, last):
        square = prime * prime
        from_s, to_s = 2 * max(1, square + first), 2 * (square + last)
        expected = [(side, odd_factorint(side)) for side in range(from_s, to_s + 1, 2)]
        assert sieved(from_s, to_s) == expected
        assert list(factor_window(from_s, to_s)) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 15).flatmap(lambda e: st.integers(1, 10**e)), st.integers(0, 30))
    def test_random_windows_match_sympy(self, half, width):
        window = sieved(2 * half, 2 * (half + width))
        assert window == [(2 * h, odd_factorint(2 * h)) for h in range(half, half + width + 1)]

    # psi_4, psi_9, then every other distinct psi_k of OEIS A014233 up to k = 12:
    # the least strong pseudoprime to the first k prime bases.
    @pytest.mark.parametrize(
        "n, primes",
        [
            (3215031751, (151, 751, 28351)),
            (3825123056546413051, (149491, 747451, 34233211)),
            (2047, (23, 89)),
            (1373653, (829, 1657)),
            (25326001, (2251, 11251)),
            (2152302898747, (6763, 10627, 29947)),
            (3474749660383, (1303, 16927, 157543)),
            (341550071728321, (10670053, 32010157)),
            (318665857834031151167461, (399165290221, 798330580441)),
        ],
    )
    def test_strong_pseudoprimes_are_split(self, n, primes):
        assert not partitions._is_prime(n)
        powers = tuple((p, 1) for p in primes)
        assert factor_side(2 * n) == powers
        assert sieved(2 * n, 2 * n) == [(2 * n, powers)]

    # The odd n from 3 up to PSI_13, in bands split at each distinct psi_k.
    @pytest.mark.parametrize("low, high", list(zip((3, *DISTINCT_PSI), (*DISTINCT_PSI, PSI_13))))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_graded_bases_agree_with_sympy_in_every_band(self, low, high, data):
        n = 2 * data.draw(st.integers(low // 2, high // 2 - 1)) + 1
        assert partitions._is_prime(n) == sympy.isprime(n)

    def test_primes_below_each_psi_are_prime(self):
        # each psi_k is proven for the first k primes as bases, and for no other bases
        assert partitions.MILLER_RABIN_BASES == tuple(sympy.primerange(2, 42))
        for psi in DISTINCT_PSI:
            assert partitions._is_prime(sympy.prevprime(psi))
        # the small primes too, where a base at or above n would call n composite
        assert [n for n in range(3, 4100, 2) if partitions._is_prime(n)] == list(
            sympy.primerange(3, 4100)
        )

    def test_rho_ends_on_a_prime_and_splits_a_composite_that_needs_three_maps(self):
        # _rho is only handed what _is_prime calls composite; a prime, from a fault
        # there, fails every map and ends in an AssertionError naming it, not a hang.
        with pytest.raises(AssertionError, match="^1000003$"):
            partitions._rho(1_000_003)
        assert partitions._rho(2963 * 2791) in (2963, 2791)  # c = 1 and c = 2 fail on it

    def test_balanced_semiprime(self):
        p, q = 1_000_000_007, 1_000_000_009
        assert factor_side(2 * p * q) == ((p, 1), (q, 1))

    def test_largest_prime_below_the_bound(self):
        prime = sympy.prevprime(PSI_13)
        assert factor_side(2 * prime) == ((prime, 1),)
        assert sieved(2 * prime, 2 * prime) == [(2 * prime, ((prime, 1),))]

    @pytest.mark.parametrize(
        "n", [PSI_13, sympy.nextprime(PSI_13), 65537 * sympy.nextprime(PSI_13 // 65537)]
    )
    def test_cofactor_at_or_past_the_bound_is_a_size_limit(self, n):
        message = f"factor {n} is left after removing the primes up to 65536; "
        with pytest.raises(SizeLimitError, match=message):
            factor_side(2 * n)
        with pytest.raises(SizeLimitError, match=message):
            sieved(2 * n, 2 * n)

    def test_small_primes_past_the_bound_are_still_removed(self):
        # 1031^9 and 65521^6 are past the bound, and 1031 is past the primes a
        # point always divides out; both ways in remove every prime up to 2^16.
        for prime, exponent in ((1031, 9), (65521, 6)):
            side = 2 * prime**exponent
            assert factor_side(side) == ((prime, exponent),)
            assert sieved(side, side) == [(side, ((prime, exponent),))]
