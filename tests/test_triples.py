"""Forward construction, inversion, general-triple decomposition, scaling."""

from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnomon_triples import triples
from gnomon_triples.errors import (
    DomainError,
    MalformedTripleError,
    NotATripleError,
    NotPrimitiveError,
)
from gnomon_triples.partitions import Partition, enumerate_partitions
from gnomon_triples.gnomons import GeneralTriple, scale
from gnomon_triples.triples import PrimitiveTriple, construct, decompose_general, from_legs, invert


class TestConstruct:
    @pytest.mark.parametrize(
        "t,l,side,expected",
        [
            (1, 1, 2, (3, 4, 5)),
            (6, 7, 84, (133, 156, 205)),
            (40, 41, 3280, (4961, 6480, 8161)),
        ],
    )
    def test_known_triples(self, t, l, side, expected):
        assert construct(Partition(t=t, l=l, side=side)).values() == expected

    def test_hypotenuse_identity(self):
        # z = x + y - S for every constructed triple
        for side in range(2, 1000, 2):
            for p in enumerate_partitions(side):
                triple = construct(p)
                assert triple.z == triple.x + triple.y - side

    def test_a_triple_built_unchecked_passes_every_check(self):
        # construct skips PrimitiveTriple's checks: a valid split's triple passes them
        for side in range(2, 2001, 2):
            for p in enumerate_partitions(side):
                triple = construct(p)
                assert type(triple) is PrimitiveTriple
                assert triple == PrimitiveTriple(*triple.values())


class TestPrimitiveTripleValidation:
    def test_rejects_non_triple(self):
        with pytest.raises(NotATripleError) as exc:
            PrimitiveTriple(3, 4, 6)
        assert isinstance(exc.value, ValueError)

    def test_rejects_swapped_parity(self):
        with pytest.raises(ValueError):
            PrimitiveTriple(4, 3, 5)

    def test_rejects_common_factor(self):
        with pytest.raises(NotPrimitiveError) as exc:
            PrimitiveTriple(6, 8, 10)
        assert isinstance(exc.value, ValueError)


class TestInvert:
    def test_smallest_triple(self):
        assert invert(3, 4, 5) == Partition(t=1, l=1, side=2)

    def test_tablet_triple(self):
        # 8161 - 6480 = 1681 = 41^2, then S = 4961 - 1681 = 3280, t = 40
        assert invert(4961, 6480, 8161) == Partition(t=40, l=41, side=3280)

    def test_legs_accepted_in_any_order(self):
        expected = Partition(t=1, l=3, side=6)
        for legs in [(15, 8, 17), (8, 15, 17), (17, 8, 15), (8, 17, 15)]:
            assert invert(*legs) == expected

    def test_scaled_triple_is_rejected(self):
        with pytest.raises(NotPrimitiveError):
            invert(6, 8, 10)
        with pytest.raises(NotPrimitiveError):
            invert(39, 52, 65)  # 13 * (3, 4, 5)

    def test_non_triple_is_rejected(self):
        with pytest.raises(NotATripleError):
            invert(3, 4, 6)
        with pytest.raises(NotATripleError):
            invert(1, 1, 1)
        # legs of one parity are named smaller first, as the CLI's error line shows
        with pytest.raises(NotATripleError, match=r"^3\^2 \+ 5\^2 != 7\^2$"):
            invert(7, 5, 3)

    def test_invalid_split_is_malformed(self, monkeypatch):
        # The Partition constructor is invert's one post-condition; l = 2 is even.
        monkeypatch.setattr(triples, "split_of", lambda x, y, z: (4, 1, 2))
        with pytest.raises(MalformedTripleError):
            invert(3, 4, 5)

    def test_error_codes_are_stable(self):
        assert NotATripleError.code == "not-a-triple"
        assert NotPrimitiveError.code == "not-primitive"
        assert MalformedTripleError.code == "malformed"
        assert DomainError.code == "domain-error"  # the code of a subclass that sets none


class TestRoundTrip:
    def test_invert_construct_is_identity(self):
        for side in range(2, 500, 2):
            for p in enumerate_partitions(side):
                triple = construct(p)
                assert invert(triple.x, triple.y, triple.z) == p


class TestDecomposeGeneral:
    @pytest.mark.parametrize(
        "triple,k,t,l,side",
        [
            ((6, 8, 10), 2, 1, 1, 2),
            ((12, 16, 20), 4, 1, 1, 2),
            ((39, 80, 89), 1, 5, 3, 30),
        ],
    )
    def test_known_decompositions(self, triple, k, t, l, side):
        assert decompose_general(*triple) == (k, Partition(t=t, l=l, side=side))

    def test_non_triple_is_rejected(self):
        with pytest.raises(NotATripleError):
            decompose_general(2, 4, 6)

    def test_round_trip_with_scale(self):
        for side in range(2, 200, 2):
            for p in enumerate_partitions(side):
                base = construct(p)
                for k in range(1, 11):
                    general = scale(base, k)
                    assert decompose_general(*general.values()) == (k, p)


class TestScale:
    def test_identity_scale_keeps_values(self):
        base = PrimitiveTriple(3, 4, 5)
        assert scale(base, 1).values() == (3, 4, 5)

    def test_known_scalings(self):
        assert scale(PrimitiveTriple(3, 4, 5), 4).values() == (12, 16, 20)
        scaled = scale(PrimitiveTriple(15, 8, 17), 3)
        assert scaled.values() == (45, 24, 51)
        assert 45 * 45 + 24 * 24 == 51 * 51
        general = GeneralTriple(base=PrimitiveTriple(5, 12, 13), scale=7)
        assert (general.x, general.y, general.z) == (35, 84, 91)


@st.composite
def coprime_splits(draw):
    """Random (t, l) with l odd and gcd(t, l) = 1, up to seven digits each."""
    t = draw(st.integers(min_value=1, max_value=2_000_000))
    l = draw(st.integers(min_value=0, max_value=1_000_000)) * 2 + 1
    if gcd(t, l) != 1:
        g = gcd(t, l)
        t //= g
        l //= g
    return t, l


@settings(max_examples=300, deadline=None)
@given(coprime_splits())
def test_round_trip_on_random_splits(split):
    t, l = split
    p = Partition(t=t, l=l, side=2 * t * l)
    triple = construct(p)
    assert triple.x * triple.x + triple.y * triple.y == triple.z * triple.z
    assert invert(triple.x, triple.y, triple.z) == p
    assert {from_legs(*legs) for legs in permutations(triple.values())} == {triple}


@settings(max_examples=100, deadline=None)
@given(coprime_splits(), st.integers(min_value=1, max_value=1000))
def test_decompose_undoes_scaling(split, k):
    t, l = split
    p = Partition(t=t, l=l, side=2 * t * l)
    general = scale(construct(p), k)
    assert decompose_general(*general.values()) == (k, p)
