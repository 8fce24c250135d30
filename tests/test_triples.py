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
    # Each refusal is a ValueError.
    @pytest.mark.parametrize("legs, error", [
        ((3, 4, 6), NotATripleError), ((4, 3, 5), ValueError), ((6, 8, 10), NotPrimitiveError),
    ], ids=["non-triple", "swapped-parity", "common-factor"])
    def test_rejects(self, legs, error):
        with pytest.raises(error) as exc:
            PrimitiveTriple(*legs)
        assert isinstance(exc.value, ValueError)


class TestInvert:
    @pytest.mark.parametrize("legs, t, l, side", [
        ((3, 4, 5), 1, 1, 2),
        # 8161 - 6480 = 1681 = 41^2, then S = 4961 - 1681 = 3280, t = 40
        ((4961, 6480, 8161), 40, 41, 3280),
        # legs in any order
        *((legs, 1, 3, 6) for legs in [(15, 8, 17), (8, 15, 17), (17, 8, 15), (8, 17, 15)]),
    ])
    def test_known_splits(self, legs, t, l, side):
        assert invert(*legs) == Partition(t=t, l=l, side=side)

    @pytest.mark.parametrize("legs, error, match", [
        ((6, 8, 10), NotPrimitiveError, None),
        ((39, 52, 65), NotPrimitiveError, None),  # 13 * (3, 4, 5)
        ((3, 4, 6), NotATripleError, None),
        ((1, 1, 1), NotATripleError, None),
        # legs of one parity are named smaller first, as the CLI's error line shows
        ((7, 5, 3), NotATripleError, r"^3\^2 \+ 5\^2 != 7\^2$"),
    ])
    def test_rejects(self, legs, error, match):
        with pytest.raises(error, match=match):
            invert(*legs)

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
    @pytest.mark.parametrize("legs, k, values", [
        ((3, 4, 5), 1, (3, 4, 5)), ((3, 4, 5), 4, (12, 16, 20)), ((15, 8, 17), 3, (45, 24, 51)),
    ])
    def test_known_scalings(self, legs, k, values):
        assert scale(PrimitiveTriple(*legs), k).values() == values

    def test_legs_of_a_general_triple(self):
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
