"""Gnomon pairs, their odd-number progressions, and the suffix overlap."""

import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnomon_triples.gnomons import Gnomon, gnomon_pair, overlap_terms, pair_progressions, scale
from gnomon_triples.ordering import stream
from gnomon_triples.partitions import Partition
from gnomon_triples.triples import PrimitiveTriple, construct


class TestPairOfGnomons:
    @pytest.mark.parametrize(
        "triple,k,t1,t2,areas",
        [
            ((3, 4, 5), 1, 1, 2, (9, 16)),
            ((15, 8, 17), 1, 9, 2, (225, 64)),
            ((4961, 6480, 8161), 1, 1681, 3200, (4961**2, 6480**2)),
            ((3, 4, 5), 4, 4, 8, (144, 256)),
            ((15, 8, 17), 3, 27, 6, (2025, 576)),
        ],
    )
    def test_known_pairs(self, triple, k, t1, t2, areas):
        pair = gnomon_pair(PrimitiveTriple(*triple), k)
        assert pair.odd_gnomon.thickness == t1
        assert pair.even_gnomon.thickness == t2
        assert pair.odd_gnomon.side_length == pair.even_gnomon.side_length == k * triple[2]
        assert (pair.odd_gnomon.area, pair.even_gnomon.area) == areas

    def test_identities_over_enumerated_triples(self):
        for row in stream(2, 500):
            x, y, z = row.triple.values()
            t, l = row.partition.t, row.partition.l
            pair = gnomon_pair(row.triple)
            t1, t2 = pair.odd_gnomon.thickness, pair.even_gnomon.thickness
            assert t1 == z - y == l * l
            assert t2 == z - x == 2 * t * t
            assert t1 + t2 == 2 * z - x - y
            assert t1 * (2 * z - t1) == x * x
            assert t2 * (2 * z - t2) == y * y

    def test_gnomons_built_unchecked_equal_checked_ones(self):
        # odd_gnomon and even_gnomon skip Gnomon's checks: a valid triple's pass them
        for row in stream(2, 2000):
            for k in (1, 3):
                pair = scale(row.triple, k)
                for gnomon in (pair.odd_gnomon, pair.even_gnomon):
                    assert type(gnomon) is Gnomon
                    assert gnomon == Gnomon(gnomon.thickness, gnomon.side_length)

    def test_an_int_subclass_is_an_int(self):
        assert Gnomon(type("Int", (int,), {})(2), 5).area == 16


class TestProgressionOnSquare:
    @pytest.mark.parametrize("thickness, side, terms, area", [
        (2, 3 + 2, [7, 9], 16),  # two terms on an odd square
        (1, 4 + 1, [9], 9),  # a single term on an even square
        (9, 8 + 9, list(range(17, 34, 2)), 225),
    ])
    def test_known_terms(self, thickness, side, terms, area):
        prog = Gnomon(thickness, side)
        assert list(prog.terms()) == terms
        assert prog.area == sum(terms) == area

    def test_total_is_difference_of_squares(self):
        for side in range(0, 60):  # side 0: the gnomon is the whole square
            for thickness in range(1, 60):
                prog = Gnomon(thickness, side + thickness)
                assert prog.area == (side + thickness) ** 2 - side**2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Gnomon(0, 1)  # no terms


class TestOverlap:
    # x < y: the shorter progression sits on the even-leg square (the odd gnomon);
    # y < x: it sits on the odd-leg square (the even gnomon).
    @pytest.mark.parametrize("triple, longer_terms, shorter_terms, shorter_one", [
        ((3, 4, 5), [7, 9], [9], "odd_gnomon"),
        ((15, 8, 17), list(range(17, 34, 2)), [31, 33], "even_gnomon"),
    ])
    def test_known_overlaps(self, triple, longer_terms, shorter_terms, shorter_one):
        pair = gnomon_pair(PrimitiveTriple(*triple))
        shared, longer, shorter = overlap_terms(pair)
        assert list(longer.terms()) == longer_terms
        assert list(shorter.terms()) == list(shared) == shorter_terms
        assert shorter == getattr(pair, shorter_one)

    def test_both_progressions_end_below_twice_the_hypotenuse(self):
        for row in stream(2, 500):
            odd, even = pair_progressions(gnomon_pair(row.triple))
            assert odd.last_term == even.last_term == 2 * row.triple.z - 1

    def test_shorter_is_a_suffix_of_longer(self):
        for row in stream(2, 300):
            shared, longer, shorter = overlap_terms(gnomon_pair(row.triple))
            assert longer.thickness > shorter.thickness
            assert list(shared) == list(longer.terms())[-shorter.thickness :]
            assert list(shared) == list(shorter.terms())

    def test_long_shared_suffix_is_not_materialized(self):
        # t=1000, l=1001: the shared suffix has l^2 = 1 002 001 terms.
        pair = gnomon_pair(construct(Partition(t=1000, l=1001, side=2_002_000)))
        tracemalloc.start()
        try:
            shared, _, shorter = overlap_terms(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(shared) == shorter.thickness == 1001**2
        assert (shared[0], shared[-1]) == (shorter.first_term, shorter.last_term)
        assert peak < 1 << 20


class TestTermByTermSums:
    def test_progressions_sum_to_their_squares_term_by_term(self):
        # Independent of the closed form: every odd number below 2 * bound is
        # added once, and a progression's sum is a difference of running sums.
        bound = 100_000
        side_cap = bound - 3 - (bound - 3) % 2
        odds = range(1, 2 * bound, 2)
        prefix = [0, *accumulate(odds)]
        checked = 0
        for row in stream(2, side_cap):
            z = row.z
            if z > bound:
                continue
            progressions = pair_progressions(gnomon_pair(row.triple))
            for g, leg in zip(progressions, (row.x, row.y)):
                assert g.terms() == odds[z - g.thickness : z]
                assert prefix[z] - prefix[z - g.thickness] == g.area == leg ** 2
            checked += 1
        assert checked == 15919


class TestScaledPairs:
    def test_identity_scale_matches_plain_pair(self):
        base = PrimitiveTriple(3, 4, 5)
        assert scale(base, 1) == gnomon_pair(base)

    def test_a_pair_is_its_scaled_triple(self):
        general = scale(PrimitiveTriple(15, 8, 17), 3)
        assert gnomon_pair is scale
        assert gnomon_pair(general.base, 3) == general
        assert pair_progressions(general) == (general.odd_gnomon, general.even_gnomon)

    def test_thicknesses_and_areas_scale_linearly_and_quadratically(self):
        for row in stream(2, 100):
            plain = gnomon_pair(row.triple)
            for k in (2, 3, 7, 20):
                scaled = scale(row.triple, k)
                assert scaled.odd_gnomon.thickness == k * plain.odd_gnomon.thickness
                assert scaled.even_gnomon.thickness == k * plain.even_gnomon.thickness
                assert scaled.odd_gnomon.side_length == k * row.triple.z
                assert scaled.odd_gnomon.area == k * k * plain.odd_gnomon.area
                assert scaled.even_gnomon.area == k * k * plain.even_gnomon.area

    def test_scaled_progressions_still_overlap(self):
        for k in (2, 5):
            pair = scale(PrimitiveTriple(5, 12, 13), k)
            shared, longer, shorter = overlap_terms(pair)
            assert longer.last_term == shorter.last_term == 2 * 13 * k - 1
            assert list(shared) == list(longer.terms())[-shorter.thickness :]
            assert longer.area == max(pair.odd_gnomon.area, pair.even_gnomon.area)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=3000),
)
def test_random_progressions_sum_term_by_term(side, thickness):
    prog = Gnomon(thickness, side + thickness)
    assert prog.area == sum(prog.terms()) == (side + thickness) ** 2 - side**2
