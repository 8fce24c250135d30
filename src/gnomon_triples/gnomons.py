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

from operator import attrgetter

from .errors import require
from .triples import GeneralTriple, Gnomon, scale

# Both gnomons of a triple scaled by k (default 1), inside its kz-by-kz square.
gnomon_pair = scale

# The (odd-area, even-area) gnomons of a pair, each its own progression.
pair_progressions = attrgetter("odd_gnomon", "even_gnomon")


def scaled_gnomon_pair(general: GeneralTriple) -> GeneralTriple:
    """Gnomons of a scaled triple: the triple itself, thicknesses k times the primitive ones."""
    return general


def overlap_terms(pair: GeneralTriple) -> tuple[range, Gnomon, Gnomon]:
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
