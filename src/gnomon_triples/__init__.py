"""Ordered enumeration, inversion, and gnomon decomposition of Pythagorean triples.

Every primitive triple arises from splitting the side S of a generating
square as S = 2tl (l odd, gcd(t, l) = 1) via

    x = S + l^2,  y = S + 2t^2,  z = S + 2t^2 + l^2,

which orders the whole set by (S/2, rank of t) and inverts exactly through
l = sqrt(z - y), S = x - l^2, t = S/(2l).
"""

from .diagrams import KINDS, DiagramSpec, render
from .errors import (
    DomainError,
    MalformedTripleError,
    NotATripleError,
    NotPrimitiveError,
    SizeLimitError,
)
from .gnomons import (
    Gnomon,
    gnomon_pair,
    overlap_terms,
    pair_progressions,
    scaled_gnomon_pair,
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
from .triples import (
    GeneralTriple,
    PrimitiveTriple,
    construct,
    decompose_general,
    invert,
    scale,
)

__version__ = "0.1.0"

__all__ = [
    "KINDS",
    "DiagramSpec",
    "DomainError",
    "GeneralTriple",
    "Gnomon",
    "MalformedTripleError",
    "NotATripleError",
    "NotPrimitiveError",
    "Partition",
    "PrimitiveTriple",
    "SizeLimitError",
    "TableRow",
    "brute_force_primitive",
    "construct",
    "decompose_general",
    "ensure_side",
    "enumerate_partitions",
    "euclid_parametrization",
    "factor_side",
    "gnomon_pair",
    "index_of",
    "invert",
    "overlap_terms",
    "pair_progressions",
    "partition_count",
    "render",
    "render_row",
    "render_table",
    "scale",
    "scaled_gnomon_pair",
    "stream",
]
