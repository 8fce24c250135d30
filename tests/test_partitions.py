"""Side factorization and (t, l) split enumeration."""

from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gnomon_triples.partitions import (
    Partition,
    ensure_side,
    enumerate_partitions,
    factor_side,
    partition_count,
)


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

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            Partition(t=3, l=3, side=18)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition(t=0, l=1, side=2)


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
