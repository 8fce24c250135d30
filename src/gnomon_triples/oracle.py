"""Independent generators used only to cross-check the main construction.

Deliberately plain: the brute-force search scans leg pairs directly, the
classical parametrization runs over coprime opposite-parity (m, n).  Neither
touches the partition machinery, so agreement with it is meaningful.
"""

from math import gcd, isqrt

from .errors import ensure
from .triples import PrimitiveTriple


def brute_force_primitive(z_max: int) -> set[PrimitiveTriple]:
    """All primitive triples with hypotenuse <= z_max, by direct leg search."""
    ensure("z_max", z_max, int, 5)
    found = set()
    z_max_sq = z_max * z_max
    for y in range(4, z_max, 2):
        y_sq = y * y
        for x in range(3, z_max, 2):
            total = x * x + y_sq
            if total > z_max_sq:
                break
            z = isqrt(total)
            if z * z == total and gcd(x, y) == 1:
                found.add(PrimitiveTriple(x=x, y=y, z=z))
    return found


def euclid_parametrization(z_max: int) -> set[PrimitiveTriple]:
    """All primitive triples with hypotenuse <= z_max via coprime (m, n).

    m > n >= 1 of opposite parity give x = m^2 - n^2, y = 2mn, z = m^2 + n^2.
    """
    ensure("z_max", z_max, int, 5)
    found = set()
    for m in range(2, isqrt(z_max - 1) + 1):
        for n in range(1, m):
            if (m + n) % 2 == 1 and gcd(m, n) == 1:
                z = m * m + n * n
                if z <= z_max:
                    found.add(PrimitiveTriple(x=m * m - n * n, y=2 * m * n, z=z))
    return found
