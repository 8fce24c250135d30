"""Command-line interface.

Exit codes: 0 success, 1 domain errors (``error: <code>: ...`` on stderr) or
a failed stdout write (``error: <strerror>: <stdout>``, silent on a closed
pipe), 2 usage errors (an unwritable ``diagram --out`` path included).
Data goes to stdout, diagnostics to stderr; only ``diagram --out`` writes a file.
Run as a program, stdout is its own buffered stream on fd 1 (line-buffered on a
terminal) whatever ``PYTHONUNBUFFERED`` says, so a non-blocking stdout that fills
ends in ``error: write could not complete without blocking: <stdout>``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .diagrams import KINDS, DiagramSpec, render
from .errors import DomainError
from .gnomons import overlap_terms, scale
from .oracle import brute_force_primitive, euclid_parametrization
from .ordering import render_lines, stream
from .partitions import BASE_PRIME_CAP, PSI_13
from .triples import decompose_general, from_legs, invert

# verify's brute-force oracle is O(z^2): about 31 s at this --z-max, inside 60 s.
Z_MAX_CAP = 30_000


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _even_side(text: str) -> int:
    value = _positive_int(text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"expected a positive even integer, got {text}")
    return value


def _z_max(text: str) -> int:
    value = _positive_int(text)
    if not 5 <= value <= Z_MAX_CAP:
        raise argparse.ArgumentTypeError(f"expected 5 to {Z_MAX_CAP}, got {text}")
    return value


def _unit_px(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _triple_arg(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected X,Y,Z, got {text!r}")
    return tuple(_positive_int(part) for part in parts)  # type: ignore[return-value]


def _add_legs(p: argparse.ArgumentParser) -> None:
    # One positional per leg, all appending to args.triple: argparse cannot show
    # nargs=3 with a tuple metavar in --help or in a missing-argument error.
    for metavar in ("X", "Y", "Z"):
        p.add_argument("triple", type=_positive_int, action="append", metavar=metavar)


def _print_pair(pair) -> None:
    print(f"T1={pair.odd_gnomon.thickness} T2={pair.even_gnomon.thickness} L={pair.z}")


def cmd_enumerate(args) -> int:
    write = sys.stdout.write
    for line in render_lines(args.from_s, args.to_s, args.format):
        write(line)
    return 0


def cmd_invert(args) -> int:
    if args.general:
        k, partition = decompose_general(*args.triple)
        print(f"k={k} S={partition.side} t={partition.t} l={partition.l}")
    else:
        partition = invert(*args.triple)
        print(f"S={partition.side} t={partition.t} l={partition.l}")
    return 0


def cmd_gnomon(args) -> int:
    pair = scale(from_legs(*args.triple), args.k)
    _print_pair(pair)
    _, _, shared = overlap_terms(pair)
    for name, gnomon in (("progression_x2", pair.odd_gnomon), ("progression_y2", pair.even_gnomon)):
        print(
            f"{name}: first={gnomon.first_term} count={gnomon.thickness} "
            f"last={gnomon.last_term} sum={gnomon.area}"
        )
    print(
        f"shared_suffix: first={shared.first_term} count={shared.thickness} "
        f"last={shared.last_term}"
    )
    return 0


def cmd_scale(args) -> int:
    pair = scale(from_legs(*args.triple), args.k)
    print(f"k={pair.scale} x={pair.x} y={pair.y} z={pair.z}")
    _print_pair(pair)
    return 0


def cmd_verify(args) -> int:
    z_max = args.z_max
    # 2t^2 + l^2 > 2*sqrt(2)*tl, so z = S + 2t^2 + l^2 > (1+sqrt(2))*S: no row with
    # z <= z_max lies on a side above z_max*(sqrt(2)-1).
    side_cap = math.isqrt(2 * z_max * z_max) - z_max
    side_cap -= side_cap % 2
    enumerated, rows = set(), 0
    for row in stream(2, side_cap):
        if row.z <= z_max:
            enumerated.add(row.triple)
            rows += 1
    oracles = {"brute_force": brute_force_primitive(z_max), "euclid": euclid_parametrization(z_max)}
    print(f"enumerator: {len(enumerated)}")
    for name, found in oracles.items():
        print(f"{name}: {len(found)}")
    if rows == len(enumerated) and all(found == enumerated for found in oracles.values()):
        print("PASS")
        return 0
    print("FAIL")
    print(f"enumerator repeats: {rows - len(enumerated)}")
    for name, found in oracles.items():
        for label, extra in ((f"enumerator - {name}", enumerated - found),
                             (f"{name} - enumerator", found - enumerated)):
            # The count, then a bounded sample: the first 10 by hypotenuse.
            sample = sorted(extra, key=lambda p: (p.z, p.x))[:10]
            print(f"{label}: {len(extra)}", *(p.values() for p in sample))
    return 1


def cmd_diagram(args) -> int:
    base = from_legs(*args.triple)
    spec = DiagramSpec(kind=args.kind, triple=base, scale_k=args.k, unit_px=args.unit)
    svg = render(spec)
    try:
        Path(args.out).write_text(svg, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc.strerror}: {args.out}", file=sys.stderr)
        return 2
    return 0


SIZE_LIMIT = (
    f"Sides are factored exactly up to a bound: a side that still has a factor of "
    f"{PSI_13} (about 3.3e24) or more once its primes up to {BASE_PRIME_CAP} "
    f"are divided out ends the run with 'error: size-limit:' (exit 1)."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnomon-triples",
        description="Enumerate, invert, and decompose Pythagorean triples "
        "via generating-square splits and gnomons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream ordered rows for a side range", epilog=SIZE_LIMIT)
    p.add_argument("--from-s", type=_even_side, default=2, help="first side (even, default 2)")
    p.add_argument("--to-s", type=_even_side, required=True, help="last side (even)")
    p.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    p.set_defaults(func=cmd_enumerate, subparser=p)

    p = sub.add_parser("table", help="appendix-style table for sides 2..B", epilog=SIZE_LIMIT)
    p.add_argument("--to-s", type=_even_side, required=True, help="last side (even)")
    p.set_defaults(func=cmd_enumerate, from_s=2, format="appendix")

    p = sub.add_parser("invert", help="recover S, t, l from a triple")
    _add_legs(p)
    p.add_argument("--general", action="store_true", help="divide out the gcd first")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("gnomon", help="gnomon pair and progressions of a triple")
    _add_legs(p)
    p.add_argument("--k", type=_positive_int, default=1, help="scale factor (default 1)")
    p.set_defaults(func=cmd_gnomon)

    p = sub.add_parser("scale", help="scale a primitive triple by K")
    _add_legs(p)
    p.add_argument("k", type=_positive_int, metavar="K")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("verify", help="cross-check the enumerator against both oracles")
    p.add_argument("--z-max", type=_z_max, default=1000,
                   help=f"hypotenuse bound, 5 to {Z_MAX_CAP} (default 1000)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diagram", help="write an SVG rendering of one construction")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--triple", type=_triple_arg, required=True, metavar="X,Y,Z")
    p.add_argument("--k", type=_positive_int, default=1, help="lattice scale (default 1)")
    p.add_argument("--unit", type=_unit_px, default=10.0, help="pixels per unit (default 10)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_diagram)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "enumerate" and args.from_s > args.to_s:
        args.subparser.error(f"--from-s {args.from_s} exceeds --to-s {args.to_s}")
    # argv was parsed under the int-to-str digit limit; results may print longer ints.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stdout.flush()  # the rows before the error come out before it
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digit_limit)


def entry_point() -> None:
    """Run ``main`` as a program; a failed stdout write ends it with exit 1."""
    try:
        # Its own buffered stream on fd 1 whatever PYTHONUNBUFFERED says; a tty's is line-buffered.
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        try:
            code = main()
        finally:  # argparse's --help exits through here too
            sys.stdout.flush()  # raise a failed write here, not at interpreter exit
    except OSError as exc:
        # As the ``signal`` docs advise: send the unflushed rest to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc.strerror}: <stdout>", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
