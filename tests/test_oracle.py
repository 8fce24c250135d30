"""The two independent generators, and their agreement with each other."""

from math import gcd

from gnomon_triples.oracle import brute_force_primitive, euclid_parametrization
from gnomon_triples.ordering import stream
from gnomon_triples.triples import PrimitiveTriple


def test_smallest_triple_only():
    assert brute_force_primitive(5) == {PrimitiveTriple(3, 4, 5)}


def test_exhaustive_up_to_25():
    expected = {
        PrimitiveTriple(3, 4, 5),
        PrimitiveTriple(5, 12, 13),
        PrimitiveTriple(15, 8, 17),
        PrimitiveTriple(7, 24, 25),
    }
    assert brute_force_primitive(25) == expected


def test_sixteen_triples_up_to_100(golden_table_text):
    found = brute_force_primitive(100)
    assert len(found) == 16
    # Cross-check against the reference table rows with hypotenuse <= 100.
    in_table = [
        line for line in golden_table_text.splitlines()
        if int(line.split("\t")[6]) <= 100
    ]
    assert len(in_table) == 16


def test_euclid_smallest_pair():
    assert PrimitiveTriple(3, 4, 5) in euclid_parametrization(5)


def test_euclid_produces_the_tablet_triple():
    # (m, n) = (81, 40): 81^2 - 40^2 = 4961, 2*81*40 = 6480, 81^2 + 40^2 = 8161
    assert PrimitiveTriple(4961, 6480, 8161) in euclid_parametrization(8161)


def test_oracles_agree():
    # Every bound up to 130 crosses each m^2 + 1 edge of euclid's range of m up to m = 11.
    for z_max in (*range(5, 131), 2000):
        assert brute_force_primitive(z_max) == euclid_parametrization(z_max), z_max


def test_split_to_euclid_pair_correspondence():
    # (t, l) -> (m, n) = (t + l, t) is a bijection onto the coprime
    # opposite-parity pairs, and both produce the same triple.
    seen_pairs = set()
    for row in stream(2, 2000):
        t, l = row.partition.t, row.partition.l
        m, n = t + l, t
        assert m > n >= 1
        assert gcd(m, n) == 1
        assert (m + n) % 2 == 1
        assert (m * m - n * n, 2 * m * n, m * m + n * n) == row.triple.values()
        assert (m, n) not in seen_pairs
        seen_pairs.add((m, n))
    # Every valid pair whose side lands in range arises from some split.
    euclid_pairs = {
        (m, n)
        for m in range(2, 1002)
        for n in range(1, m)
        if gcd(m, n) == 1 and (m + n) % 2 == 1 and 2 * n * (m - n) <= 2000
    }
    assert euclid_pairs == seen_pairs
