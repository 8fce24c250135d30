"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
All assertions are exact integer comparisons; the only tolerances are the
stated runtime budgets.
"""

import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from itertools import islice

import sympy

from gnomon_triples.cli import main
from gnomon_triples.diagrams import KINDS, DiagramSpec, render
from gnomon_triples.gnomons import gnomon_pair, overlap_terms, pair_progressions, scale
from gnomon_triples.oracle import brute_force_primitive, euclid_parametrization
from gnomon_triples.ordering import stream
from gnomon_triples.partitions import Partition, enumerate_partitions, partition_count
from gnomon_triples.triples import construct, decompose_general, invert

SVG_NS = "{http://www.w3.org/2000/svg}"


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_reference_table_reproduction(capsys, golden_table_text):
    with criterion(1, "table --to-s 100 reproduces the reference table byte-exactly"):
        start = time.perf_counter()
        code = main(["table", "--to-s", "100"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out.encode() == golden_table_text.encode()
        lines = out.splitlines()
        assert len(lines) == 110
        assert lines[0].startswith("1.1\t") and lines[-1].startswith("50.2\t")
        four_row_sides = [
            int(line.split("\t")[1])
            for i, line in enumerate(lines)
            if line.split("\t")[1]
            and i + 3 < len(lines)
            and all(lines[i + j].split("\t")[1] == "" for j in (1, 2, 3))
        ]
        assert four_row_sides == [30, 42, 60, 66, 70, 78, 84, 90]
        assert elapsed < 1.0, f"table rendering took {elapsed:.2f}s"


def test_criterion_2_tablet_triple_inversion():
    with criterion(2, "invert(4961, 6480, 8161) -> S=3280, t=40, l=41, exact round trip"):
        partition = invert(4961, 6480, 8161)
        assert partition == Partition(t=40, l=41, side=3280)
        assert 8161 - 6480 == 1681 == 41 * 41
        assert construct(partition).values() == (4961, 6480, 8161)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "enumerator, brute force, and classical parametrization agree at z <= 10^4"):
        bound = 10_000

        start = time.perf_counter()
        rows = [row for row in stream(2, 9996) if row.triple.z <= bound]
        enumerated = {row.triple for row in rows}
        enum_time = time.perf_counter() - start
        assert len(rows) == len(enumerated), "enumerator produced duplicates"

        start = time.perf_counter()
        brute = brute_force_primitive(bound)
        brute_time = time.perf_counter() - start

        start = time.perf_counter()
        euclid = euclid_parametrization(bound)
        euclid_time = time.perf_counter() - start

        assert len(enumerated) == len(brute) == len(euclid) == 1593
        assert enumerated == brute == euclid
        assert brute_time < 60.0, f"brute force took {brute_time:.2f}s"
        assert enum_time < 1.0, f"enumerator took {enum_time:.2f}s"
        assert euclid_time < 1.0, f"parametrization took {euclid_time:.2f}s"


def test_criterion_4_split_count_law():
    with criterion(4, "split count is 2^(distinct odd primes) for all even S <= 10^4"):
        for side in range(2, 10_001, 2):
            odd_primes = sum(1 for p in sympy.factorint(side) if p != 2)
            assert len(enumerate_partitions(side)) == partition_count(side) == 2**odd_primes, side


def test_criterion_5_gnomon_identities():
    with criterion(5, "gnomon and progression identities hold exactly for S <= 2000"):
        count = 0
        for row in stream(2, 2000):
            x, y, z = row.triple.values()
            t, l = row.partition.t, row.partition.l
            pair = gnomon_pair(row.triple)
            t1, t2 = pair.odd_gnomon.thickness, pair.even_gnomon.thickness
            assert t1 == z - y == l * l
            assert t2 == z - x == 2 * t * t
            assert t1 * (2 * z - t1) == x * x
            assert t2 * (2 * z - t2) == y * y

            odd, even = pair_progressions(pair)
            assert odd.area == x * x
            assert even.area == y * y
            assert odd.last_term == even.last_term == 2 * z - 1

            shared, longer, shorter = overlap_terms(pair)
            suffix_first = longer.last_term - 2 * (shorter.thickness - 1)
            assert list(shared) == list(range(suffix_first, longer.last_term + 1, 2))
            assert list(shared) == list(shorter.terms())
            count += 1
        assert count == sum(len(enumerate_partitions(s)) for s in range(2, 2001, 2))


def test_criterion_6_scaling_law():
    with criterion(6, "scaled thicknesses k*l^2 and 2k*t^2, sides k*z, areas k^2-fold, S <= 200"):
        for row in stream(2, 200):
            x, y, z = row.triple.values()
            t, l = row.partition.t, row.partition.l
            for k in range(1, 21):
                pair = scale(row.triple, k)
                assert pair.odd_gnomon.thickness == k * l * l
                assert pair.even_gnomon.thickness == 2 * k * t * t
                assert pair.odd_gnomon.side_length == k * z
                assert pair.even_gnomon.side_length == k * z
                assert pair.odd_gnomon.area == k * k * x * x
                assert pair.even_gnomon.area == k * k * y * y


def test_criterion_7_round_trips():
    with criterion(7, "invert∘construct identity for S <= 2000; gcd split undoes scaling for k <= 10"):
        for row in stream(2, 2000):
            assert invert(*row.triple.values()) == row.partition
            for k in range(1, 11):
                general = scale(row.triple, k)
                assert decompose_general(*general.values()) == (k, row.partition)


def test_criterion_8_diagram_structure():
    with criterion(8, "lattice has 16 cells at k=4, regrouped gnomon is 4 units thick, accounting holds"):
        t345 = construct(invert(3, 4, 5))

        lattice = render(DiagramSpec("lattice", t345, scale_k=4, unit_px=10))
        root = ET.fromstring(lattice)
        cells = [g for g in root.iter(f"{SVG_NS}g") if g.get("class") == "cell"]
        assert len(cells) == 16

        regrouped = render(DiagramSpec("lattice_regrouped", t345, scale_k=4, unit_px=1))
        arms = [
            tuple(float(r.get(a)) for a in ("x", "y", "width", "height"))
            for r in ET.fromstring(regrouped).iter(f"{SVG_NS}rect")
            if r.get("class") == "gnomon-odd"
        ]
        # at 1 px per unit the left arm's width is the thickness in units
        assert arms[0] == (0.0, 0.0, 4.0, 20.0)

        for row in islice(stream(2, 100), 20):
            for kind in KINDS:
                for k in (1, 4):
                    render(DiagramSpec(kind, row.triple, scale_k=k, unit_px=0.1))
