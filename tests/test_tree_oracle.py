"""A third, test-only oracle: the Berggren/Barning/Hall tree of primitive triples.

Three integer 3x3 maps take (3, 4, 5) to every primitive triple exactly
once (B. Berggren 1934; F. J. M. Barning 1963; A. Hall, "Genealogy of
Pythagorean triads", Math. Gazette 54, 1970).  The tree uses neither
factoring nor (m, n), and its cost is proportional to its output, so it
checks ``stream``, and the window sieve under it, up to z <= 10^6, far
past the z <= 10^4 reach of the brute-force oracle.
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


def test_stream_equals_the_tree_up_to_z_1e6(monkeypatch):
    # 2t^2 + l^2 > 2*sqrt(2)*tl, so z = S + 2t^2 + l^2 > (1+sqrt(2))*S: sides up to
    # z_max*(sqrt(2)-1) = 414213.56... hold every triple.  Short sieve segments
    # cross a segment boundary every 16 half-sides.
    z_max = 1_000_000
    monkeypatch.setattr(partitions, "SEGMENT_LENGTH", 16)
    streamed = [(r.x, r.y, r.z) for r in stream(2, 414_212) if r.z <= z_max]
    tree = tree_triples(z_max)
    assert len(tree) == 159_139
    assert len(streamed) == len(tree)  # with equal sets below, no row repeats
    assert set(streamed) == tree
