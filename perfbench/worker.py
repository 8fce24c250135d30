"""Child process of the benchmark: runs gnomon_triples in-process.

Reads one JSON job from stdin and writes one JSON result line to stdout.

Jobs:
  {"mode": "point", "ops": [[kind, inputs, expected], ...], "warmup": n,
   "seconds": s, "trace": bool}
      Closed loop with one caller over the generated point operations.
      Every op is timed on its own and its result checked outside the
      timed region; each untraced pass is also scaled to the nominal host
      (hostspeed.py).  With "trace", untraced and traced passes alternate.
  {"mode": "cli", "argvs": [[...], ...], "seconds": s}
      Calls ``cli.main(argv)`` for each argv in turn, with stdout replaced
      by a digesting stream, alternating untraced and traced passes (the
      traced run of the CLI workloads).
"""

from __future__ import annotations

import json
import sys
import xml.etree.ElementTree as ET
from time import perf_counter, perf_counter_ns

import gnomon_triples as lib
import gnomon_triples.cli
from hostspeed import reference_s, scale
from tracer import Tracer, digest_stdout

SVG_TAG = "{http://www.w3.org/2000/svg}svg"
POINT_KINDS = ("invert", "index_of", "gnomon", "render")


# Each op takes the generated values, calls the library the way the CLI
# command of the same name does, and returns what the check reads.
def op_invert(a, b, c):
    p = lib.invert(a, b, c)
    return p.t, p.l, p.side


def op_index_of(x, y, z):
    index = lib.index_of(lib.PrimitiveTriple(x, y, z))
    return index.n1, index.n2


def op_gnomon(a, b, c):
    pair = lib.gnomon_pair(lib.construct(lib.invert(a, b, c)))
    lib.pair_progressions(pair)
    shared, _, shorter = lib.overlap_terms(pair)
    return shared[0], len(shared), shared[-1], shorter.first_term


def op_render(kind, x, y, z, k, unit):
    triple = lib.construct(lib.invert(x, y, z))
    return lib.render(lib.DiagramSpec(kind=kind, triple=triple, scale_k=k, unit_px=unit))


def check_render(svg, width_px, rects) -> bool:
    root = ET.fromstring(svg)
    return (
        root.tag == SVG_TAG
        and abs(float(root.get("width")) - width_px) <= 1e-6 * max(1.0, width_px)
        and sum(1 for e in root.iter() if e.tag.endswith("}rect")) == rects
    )


OPS = {"invert": op_invert, "index_of": op_index_of, "gnomon": op_gnomon, "render": op_render}


def check(kind, result, expected) -> bool:
    if kind == "render":
        return check_render(result, *expected)
    if kind == "gnomon":
        first, count, last, shorter_first = result
        return (first, count, last) == tuple(expected) and shorter_first == first
    return tuple(result) == tuple(expected)


def run_point(ops, warmup: int, seconds: float, trace: bool) -> dict:
    jobs = [(kind, OPS[kind], args, expected) for kind, args, expected in ops]
    for _, fn, args, _ in jobs[:warmup]:
        fn(*args)
    tracer = Tracer()
    latencies = {kind: [] for kind in POINT_KINDS}
    walls = {False: [], True: []}
    scaled_walls = []
    attempted = failed = 0
    failures: list[str] = []
    cycle_start = perf_counter()
    deadline = cycle_start + seconds
    traced = False
    while True:
        if traced:
            tracer.install(lib)
        busy = 0
        before = reference_s()
        try:
            for kind, fn, args, expected in jobs:
                attempted += 1
                start = perf_counter_ns()
                try:
                    result = fn(*args)
                except Exception as exc:  # a failed op is counted, never fatal
                    busy += perf_counter_ns() - start
                    failed += 1
                    failures.append(f"{kind}{tuple(args)}: {exc!r}")
                    continue
                elapsed = perf_counter_ns() - start
                busy += elapsed
                if not traced:
                    latencies[kind].append(elapsed)
                try:
                    ok = check(kind, result, expected)
                except Exception as exc:
                    ok = False
                    result = f"a result whose check raised {exc!r}"
                if not ok:
                    failed += 1
                    failures.append(f"{kind}{tuple(args)}: got {str(result)[:200]}")
                del failures[10:]
        finally:
            tracer.uninstall()
        walls[traced].append(busy / 1e9)
        if not traced:
            scaled_walls.append(scale(busy / 1e9, before, reference_s()))
        if traced == trace:  # a cycle ends here
            if _cycle_done(cycle_start, deadline):
                break
            cycle_start = perf_counter()
        traced = trace and not traced
    return {
        "walls": walls[False],
        "scaled_walls": scaled_walls,
        "traced_walls": walls[True],
        "latencies_us": {k: _percentiles(v) for k, v in latencies.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        **_trace_stats(tracer),
    }


def run_cli(argvs, seconds: float) -> dict:
    tracer = Tracer()
    walls = {False: [], True: []}
    digests = []
    codes = []
    real_stdout = sys.stdout
    cycle_start = perf_counter()
    deadline = cycle_start + seconds
    traced = False
    while True:
        if traced:
            tracer.install(lib)
        wall = 0.0
        digests.append([])
        codes.append([])
        try:
            for argv in argvs:
                raw, out = digest_stdout()
                sys.stdout = tracer.traced_stdout(out) if traced else out
                try:
                    start = perf_counter()
                    codes[-1].append(gnomon_triples.cli.main(argv))
                    out.flush()
                    wall += perf_counter() - start
                finally:
                    sys.stdout = real_stdout
                digests[-1].append(raw.sha.hexdigest())
        finally:
            tracer.uninstall()
        walls[traced].append(wall)
        if traced:  # a cycle ends here
            if _cycle_done(cycle_start, deadline):
                break
            cycle_start = perf_counter()
        traced = not traced
    return {"walls": walls[False], "traced_walls": walls[True], "digests": digests,
            "codes": codes, **_trace_stats(tracer)}


def _cycle_done(cycle_start: float, deadline: float) -> bool:
    """Whether another cycle (an untraced pass, and a traced one when
    tracing) as long as the last would end past the deadline."""
    now = perf_counter()
    return now + (now - cycle_start) >= deadline


def _percentiles(samples_ns) -> dict:
    samples = sorted(samples_ns)
    if not samples:
        return {"n": 0, "p50": 0.0, "p99": 0.0}

    def pick(q):
        return samples[min(len(samples) - 1, int(q * len(samples)))] / 1e3

    return {"n": len(samples), "p50": pick(0.50), "p99": pick(0.99)}


def _trace_stats(tracer: Tracer) -> dict:
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "self_total": tracer.self_total(),
    }


def main() -> None:
    job = json.load(sys.stdin)
    if job["mode"] == "point":
        result = run_point(job["ops"], job["warmup"], job["seconds"], job["trace"])
    else:
        result = run_cli(job["argvs"], job["seconds"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
