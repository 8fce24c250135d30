"""Side factorization and (t, l) split enumeration."""

import random
import time
from array import array
from functools import cache
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

    @pytest.mark.parametrize("bad", [-2, 1, 3, 15])
    def test_rejects_odd_or_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ensure_side(bad)


class TestFactorSide:
    def test_base_primes_are_the_odd_primes_up_to_the_cap(self):
        # Early in the file: a sieve that keeps a composite or an even number makes
        # factor_window divide by it blindly, and a rest that reaches 0 never ends.
        # cap 1 is the smallest asked for: factor_window(2, 2) has the bound isqrt(1)
        for cap in (1, 2, 4, 2**10, 2**16, 2**18):
            assert list(partitions._odd_primes(cap)) == list(sympy.primerange(3, cap)), cap

    @pytest.mark.parametrize("side, profile", [
        (2, ()),  # a power of two has no odd part
        (30, ((3, 1), (5, 1))),
        (48, ((3, 1),)),  # a prime power collapses to one entry
        (2 * 1031**2, ((1031, 2),)),  # 1031 is the first prime a point does not always divide out
    ])
    def test_known_profiles(self, side, profile):
        assert factor_side(side) == profile

    def test_profile_reconstructs_the_side(self):
        for side in range(2, 5000, 2):
            product = side & -side  # the side's power of 2
            for prime, exponent in factor_side(side):
                product *= prime**exponent
            assert product == side

    def test_matches_independent_factorization(self):
        # Past the small sides, for the gcd that finds the primes up to 2^10: sides of
        # 1021 (the last of them), 1031 (the first past them) and 3; cofactors at or
        # past psi_13 until primes past 2^10 are divided out; random sides of 1 to 24 digits.
        rng = random.Random(26)
        sides = [*range(2, 2000, 2), 2 * 1031**2,
                 2 * 3 * 1021 * 2003 * 65521 * sympy.prevprime(10**21),
                 2 * 1031**3 * sympy.prevprime(PSI_13 // 10**9),
                 2 * 5 * sympy.prevprime(40000) ** 2 * sympy.prevprime(10**16)]
        sides += [2 * 3**a * 1021**b * 1031**c for a in (0, 1, 2, 9) for b in (0, 1, 3)
                  for c in (0, 1, 2)]
        sides += [2 * rng.randrange(10 ** (d - 1), 10**d) for d in range(1, 25) for _ in range(3)]
        for side in sides:
            reference = sympy.factorint(side)
            reference.pop(2)
            # increasing odd primes, each exponent >= 1, exactly as sympy has them
            assert factor_side(side) == tuple(sorted(reference.items())), side


class TestPartitionCount:
    @pytest.mark.parametrize("side,count", [(32, 1), (30, 4), (2, 1), (3280, 4)])
    def test_known_counts(self, side, count):
        assert partition_count(side) == count

    def test_power_law_over_range(self):
        for side in range(2, 2000, 2):
            odd_primes = [p for p in sympy.factorint(side) if p != 2]
            assert partition_count(side) == 2 ** len(odd_primes)


class TestEnumeratePartitions:
    @pytest.mark.parametrize("side, splits", [
        (30, [(1, 15), (3, 5), (5, 3), (15, 1)]),
        (16, [(8, 1)]),
        (12, [(2, 3), (6, 1)]),
    ])
    def test_known_splits(self, side, splits):
        assert [(p.t, p.l) for p in enumerate_partitions(side)] == splits

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
    @pytest.mark.parametrize("t, l, side", [(1, 2, 4), (1, 1, 4), (3, 3, 18)],
                             ids=["even-l", "mismatched-side", "shared-factor"])
    def test_rejects(self, t, l, side):
        with pytest.raises(ValueError):
            Partition(t=t, l=l, side=side)


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
    """The window sieve's output, with segments short enough to cross many and
    every window below the root sieve's boundary sieved to its square root."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "SEGMENT_LENGTH", segment)
        patch.setattr(partitions, "ROOT_SIEVE_WORK", 0)
        return list(factor_window(from_s, to_s))


def counted(monkeypatch) -> dict[str, list[tuple]]:
    """The arguments of every call to the finisher, Miller-Rabin and rho, by name."""
    calls: dict[str, list[tuple]] = {}
    for name in ("_finish", "_is_prime", "_rho"):
        def spy(*args, name=name, original=getattr(partitions, name)):
            calls[name].append(args)
            return original(*args)

        calls[name] = []
        monkeypatch.setattr(partitions, name, spy)
    return calls


def built(monkeypatch) -> list[int]:
    """The caps of the prime tables sieved from now on, from empty caches, in order."""
    caps: list[int] = []
    sieve = partitions._odd_primes.__wrapped__
    spy = cache(lambda cap: caps.append(cap) or sieve(cap))
    monkeypatch.setattr(partitions, "_odd_primes", spy)
    partitions._point_primes_product.cache_clear()
    return caps


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

    def test_products_of_atoms_out_of_prime_order_are_sorted(self):
        # The atoms 27, 5, 7 are not in increasing order, so no order of the products
        # built prime by prime is the answer without the sort.
        assert odd_parts(((3, 3), (5, 1), (7, 1))) == [945, 189, 135, 35, 27, 7, 5, 1]


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
        st.sampled_from([3, 5, 7, 251, 1021, 1031, 65521, 65537, 65539, 262139, 262147])
        | st.integers(2, 2 * 10**6).map(sympy.nextprime),
        st.integers(-9, 9),
        st.integers(0, 20),
    )
    def test_windows_around_a_prime_square(self, prime, offset, width):
        first = max(1, prime * prime + offset)
        from_s, to_s = 2 * first, 2 * (first + width)
        expected = [(side, odd_factorint(side)) for side in range(from_s, to_s + 1, 2)]
        assert sieved(from_s, to_s) == expected

    # (2^18 + 1)^2 is the root sieve's boundary: a window ending there or past it is sieved to 2^16.
    @pytest.mark.parametrize("root", [3, 65521, 65537, 2**18 + 1])
    @pytest.mark.parametrize("first, last", [(0, 0), (-1, 1), (-3, 0), (0, 5), (1, 1), (-1, -1), (-7, 7)])
    def test_windows_that_start_end_or_straddle_a_prime_square(self, root, first, last):
        square = root * root
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

    def test_rho_on_a_prime_ends_within_half_a_second(self):
        # Each map stops once r passes 8 n^(1/4); with no bound on r this took about 3 s.
        start = time.perf_counter()
        with pytest.raises(AssertionError, match="^100000000003$"):
            partitions._rho(100_000_000_003)
        assert time.perf_counter() - start < 0.5

    def test_rho_splits_a_composite_whose_batch_overshoots(self):
        # c = 1 catches both primes of 22055881 = 1303 * 16927 in one batch; the
        # replay splits it there, where the next map would take twice as long.
        assert partitions._rho(22_055_881) == 16927

    def test_a_replay_that_never_splits_fails_within_a_batch(self, monkeypatch):
        # A fault that loses the replay's common factor must end, not spin: the
        # replay takes at most one batch of steps, then fails require, naming n.
        found = []  # each call's gcd: n once, when the batch overshoots, then 1

        def gcd_that_loses_the_factor(a, n):
            found.append(1 if n in found else gcd(a, n))
            return found[-1]

        monkeypatch.setattr(partitions, "gcd", gcd_that_loses_the_factor)
        with pytest.raises(AssertionError, match="^22055881$"):
            partitions._rho(22_055_881)
        assert found[found.index(22_055_881) + 1 :] == [1] * 128  # one batch of steps

    def test_a_zero_rest_fails_the_window_and_does_not_hang(self, monkeypatch):
        # A wrong base prime (9, say) divides the rest 1 of the half-side 9 down to 0,
        # on which the exponent loop must stop; the segment then fails require.
        monkeypatch.setattr(partitions, "_odd_primes", lambda cap: array("H", [3, 9]))
        with pytest.raises(AssertionError, match="^1$"):
            list(factor_window(2, 200))

    def test_a_window_below_the_root_cap_is_finished_by_the_sieve_alone(self, monkeypatch):
        calls = counted(monkeypatch)
        assert len(list(factor_window(10**11, 10**11 + 2000))) == 1001
        assert (len(calls["_is_prime"]), len(calls["_rho"])) == (0, 0)  # 155 and 17 at 2^16

    # Past the boundary, and below it but too narrow to repay the table of primes past 2^16.
    @pytest.mark.parametrize("half", [10**11, 5 * 10**10])
    def test_a_window_past_the_root_cap_or_narrow_keeps_the_finisher(self, monkeypatch, half):
        side = 2 * sympy.nextprime(half)
        calls = counted(monkeypatch)
        assert list(factor_window(side, side)) == [(side, ((side // 2, 1),))]
        assert calls["_is_prime"] == [(side // 2,)]

    def test_each_window_builds_one_table_for_its_bound(self, monkeypatch):
        caps = built(monkeypatch)
        list(factor_window(2, 50000))  # primes up to isqrt(25000) = 158
        assert caps == [2**8]
        list(factor_window(10**11, 10**11 + 2000))  # past 2^16: one table, not two
        assert caps == [2**8, 2**18]

    def test_a_narrow_far_window_and_a_point_share_the_2_16_table(self, monkeypatch):
        caps = built(monkeypatch)
        list(factor_window(10**11, 10**11 + 200))
        factor_side(10**11)
        assert caps == [2**16, 2**10]

    def test_a_point_square_needs_no_rho(self, monkeypatch):
        p = sympy.nextprime(10**7)
        calls = counted(monkeypatch)
        assert factor_side(2 * p * p) == ((p, 2),)
        assert calls["_rho"] == []

    def test_a_point_with_no_prime_up_to_2_10_goes_whole_to_the_finisher(self, monkeypatch):
        calls = counted(monkeypatch)
        assert factor_side(2 * 1031 * 1033) == ((1031, 1), (1033, 1))
        assert calls["_finish"][0] == (1031 * 1033, 2**10)

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
