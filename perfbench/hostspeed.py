"""The host's current speed, from a fixed pure-Python reference loop.

On a shared host other tenants slow the CPU by up to 2x for stretches of
seconds to minutes, and a pass of the program slows with it.  The
benchmark times this loop right before and after each measured pass and
scales the pass to a nominal host, one that runs the loop in
``NOMINAL_S`` seconds:

    scaled = wall * NOMINAL_S / (mean of the loop's two times)

The loop is the benchmark's own code, so a change to the program moves
the scaled time exactly as it moves the wall time; only the host's speed
drops out.  Its mix follows the program's: trial division by odd
numbers, as in ``factor_side``, then small tuples and formatted strings,
as in row building.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.04  # about the loop's time on a lightly loaded 2-vCPU Xeon VM
TRIAL_LIMIT = 800_000
ROWS = 40_000


def reference_s() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    found = 0
    for divisor in range(3, TRIAL_LIMIT, 2):
        found += 100_000_000_003 % divisor == 0
    rows = [(k, k * k, f"{k}.{k % 7}") for k in range(ROWS)]
    del rows
    return perf_counter() - start


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` as it would read on the nominal host."""
    return wall * NOMINAL_S * 2 / (before + after)
