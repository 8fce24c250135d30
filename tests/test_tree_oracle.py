"""A third, test-only oracle: the Berggren/Barning/Hall tree of primitive triples.

Three integer 3x3 maps take (3, 4, 5) to every primitive triple exactly
once (B. Berggren 1934; F. J. M. Barning 1963; A. Hall, "Genealogy of
Pythagorean triads", Math. Gazette 54, 1970).  The tree uses neither
factoring nor (m, n), and its cost is proportional to its output, so it
checks ``stream``, and the window sieve under it, far past the z <= 10^4
reach of the brute-force oracle.
"""

from gnomon_triples import partitions
from gnomon_triples.ordering import stream


def tree_triples(z_max: int) -> set[tuple[int, int, int]]:
    """Every primitive triple (odd leg, even leg, z) with z <= z_max, from the tree."""
    found = set()
    pending = [(3, 4, 5)]
    while pending:
        a, b, c = pending.pop()
        found.add((a, b, c) if a % 2 else (b, a, c))
        for child in (
            (a - 2 * b + 2 * c, 2 * a - b + 2 * c, 2 * a - 2 * b + 3 * c),
            (a + 2 * b + 2 * c, 2 * a + b + 2 * c, 2 * a + 2 * b + 3 * c),
            (-a + 2 * b + 2 * c, -2 * a + b + 2 * c, -2 * a + 2 * b + 3 * c),
        ):
            if child[2] <= z_max:  # a child's hypotenuse exceeds its parent's
                pending.append(child)
    return found


def test_tree_reaches_the_first_triples():
    assert tree_triples(30) == {(3, 4, 5), (5, 12, 13), (15, 8, 17), (7, 24, 25), (21, 20, 29)}


def test_stream_equals_the_tree_up_to_z_1e5(monkeypatch):
    # z exceeds the side by at least 3, so sides up to z_max - 3 hold every
    # triple; short sieve segments cross a segment boundary every 7 half-sides.
    z_max = 100_000
    monkeypatch.setattr(partitions, "SEGMENT_LENGTH", 7)
    streamed = [(r.x, r.y, r.z) for r in stream(2, z_max - 4) if r.z <= z_max]
    tree = tree_triples(z_max)
    assert len(tree) == 15_919
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == tree
