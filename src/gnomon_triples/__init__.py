"""Ordered enumeration, inversion, and gnomon decomposition of Pythagorean triples.

Every primitive triple arises from splitting the side S of a generating
square as S = 2tl (l odd, gcd(t, l) = 1) via

    x = S + l^2,  y = S + 2t^2,  z = S + 2t^2 + l^2,

which orders the whole set by (S/2, rank of t) and inverts exactly through
l = sqrt(z - y), S = x - l^2, t = S/(2l).
"""

from types import ModuleType as _ModuleType

from .diagrams import KINDS, DiagramSpec, render
from .errors import (
    DomainError,
    MalformedTripleError,
    NotATripleError,
    NotPrimitiveError,
    SizeLimitError,
)
from .gnomons import (
    GeneralTriple,
    Gnomon,
    gnomon_pair,
    overlap_terms,
    pair_progressions,
    scale,
)
from .oracle import brute_force_primitive, euclid_parametrization
from .ordering import TableRow, index_of, render_row, render_table, stream
from .partitions import (
    Partition,
    ensure_side,
    enumerate_partitions,
    factor_side,
    partition_count,
)
from .triples import PrimitiveTriple, construct, decompose_general, invert

__version__ = "0.1.0"

# The exports are the public names imported above, submodules aside.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
