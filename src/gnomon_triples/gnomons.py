"""L-shaped gnomon decompositions of a triple and their odd-number progressions.

A square of side L splits into a smaller square of side L - T and an
L-shaped gnomon of thickness T with area T(2L - T).  Every triple yields
two such gnomons over the same z-by-z square: one of thickness z - y
carrying area x^2, one of thickness z - x carrying area y^2.  Each gnomon's
area is also the sum of consecutive odd numbers starting just above the
inner square, and both progressions end at 2z - 1, so the shorter one is a
suffix of the longer.
"""

from __future__ import annotations

from .errors import require
from .triples import GeneralTriple, Gnomon, PrimitiveTriple

# A gnomon pair is the scaled triple itself, so Gnomon and GeneralTriple live in triples.py.
GnomonPair = GeneralTriple


def gnomon_pair(triple: PrimitiveTriple, k: int = 1) -> GnomonPair:
    """Both gnomons of a triple scaled by k, inside its kz-by-kz square."""
    return GnomonPair(triple, k)


def scaled_gnomon_pair(general: GeneralTriple) -> GnomonPair:
    """Gnomons of a scaled triple: the triple itself, thicknesses k times the primitive ones."""
    return general


def pair_progressions(pair: GnomonPair) -> tuple[Gnomon, Gnomon]:
    """The (odd-area, even-area) gnomons of a pair, each its own progression."""
    return pair.odd_gnomon, pair.even_gnomon


def overlap_terms(pair: GnomonPair) -> tuple[range, Gnomon, Gnomon]:
    """Shared suffix of the pair's two progressions, plus both gnomons.

    Both progressions end at one less than twice the outer side, so the one
    with fewer terms coincides with the tail of the other.  Returns
    (shared terms as a range, longer gnomon, shorter gnomon).
    """
    odd, even = pair_progressions(pair)
    # Equal thicknesses would need l^2 = 2t^2, impossible for coprime t, l.
    require(odd.thickness != even.thickness, pair)
    longer, shorter = (odd, even) if odd.thickness > even.thickness else (even, odd)
    return shorter.terms(), longer, shorter
