"""Benchmark of gnomon-triples: four workloads, end-to-end and per-layer metrics.

Run one workload (the last stdout line is a JSON result):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run every workload and print each metric by name with its unit:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

``--small`` shrinks every input for a quick smoke run.  The program is
run from ``src/`` of the checkout this file sits in; every workload runs
in fresh child processes, one at a time.  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` gives the per-layer
metrics, timing calls into the package from outside (see tracer.py).
See README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from math import gcd
from pathlib import Path
from time import perf_counter

# This process writes no bytecode (sympy's included): the benchmark writes
# only inside its checkout.
sys.dont_write_bytecode = True

from hostspeed import reference_s, scale  # noqa: E402
from tracer import ROW_FORMATS, WRAPPED  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "appendix_table_s100.txt"
WORKER = HERE / "worker.py"
SPAWN = HERE / "spawn.py"

WORKLOADS = ("table_dense", "enumerate_jsonl", "far_window", "point_mix")

SIZES = {
    False: {"table_to_s": 50_000, "jsonl_to_s": 20_000, "far_windows": 4, "far_width": 2_000,
            "point_ops": {"invert": 2_000, "index_of": 2_000, "gnomon": 2_000, "render": 2_000}},
    True: {"table_to_s": 2_000, "jsonl_to_s": 2_000, "far_windows": 2, "far_width": 200,
           "point_ops": {"invert": 100, "index_of": 100, "gnomon": 100, "render": 100}},
}

# SHA-256 of the CLI's stdout, recorded at the commit that added this
# benchmark; the output format is meant to stay byte-exact.
RECORDED_DIGESTS = {
    ("table", "--to-s", "50000"):
        "8e639439326f3a45dbea2da4d37c66700789a54fdf9bcf6360e2670a9684e478",
    ("table", "--to-s", "2000"):
        "9b0cf335f870bd11530f3a99b61a8d50603b1f9404a18b9d63b054ffa63260e3",
    ("enumerate", "--from-s", "2", "--to-s", "20000", "--format", "jsonl"):
        "618145cbb64471c8866444ccb49b9a9e87f25fd8fff94641414d17fddd8a500e",
    ("enumerate", "--from-s", "2", "--to-s", "2000", "--format", "jsonl"):
        "a142f5257359f8a3e39a6a75be5c82566611ea75b18c54ce1d1783da48e53a3b",
}
JSONL_KEYS = ["n1", "n2", "s", "t", "l", "x", "y", "z"]

# Input bounds.  overlap_terms currently builds the whole shared suffix
# as a list, so gnomon sides stay <= 2*10^6 (suffixes up to ~1.4*10^6
# terms, ~50 MB); an uncapped side near 10^9 exhausts memory.  Drawn
# suffixes are log-uniform up to 10^5 terms, plus the widest one.  Lattice
# diagrams emit k^2 cell groups, so k stays <= 24, and every frame stays
# inside the renderer's 20000 px cap.
INDEX_MAX_HALF_SIDE = 10**11
GNOMON_MAX_HALF_SIDE = 10**6
GNOMON_MAX_DRAWN_SUFFIX = 10**5
INVERT_MAX_FACTOR = 10**5
RENDER_MAX_T, RENDER_MAX_L, RENDER_MAX_K = 100, 141, 24
MAX_SIDE_PX = 20_000.0
RENDER_KINDS = ("square_gnomon_odd", "square_gnomon_even", "connected",
                "lattice", "lattice_regrouped")

MIN_PASSES = 3           # timed CLI passes per run, at least
SETUP_REPEATS = 9        # fresh interpreters timed for setup_s, at least
CHILD_TIMEOUT_S = 120.0  # a child still running after this is killed

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
POINT_KINDS = ("invert", "index_of", "gnomon", "render")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for module, function in WRAPPED:
        name = f"{module}.{function}"
        if function == "render_row":
            for fmt in ROW_FORMATS:
                units[f"{name}.{fmt}.calls"] = "count"
                units[f"{name}.{fmt}.self_s"] = "s"
            continue
        units[f"{name}.rows" if function == "stream" else f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "ordering.render_table.bytes": "B",
        "gnomons.overlap_terms.terms_built": "count",
        "gnomons.overlap_terms.useful_ratio": "ratio",
        "diagrams.render.bytes": "B",
        "diagrams.render.elements": "count",
        "cli.stdout.write_calls": "count",
        "cli.stdout.bytes": "B",
        "cli.stdout.write_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    for kind in POINT_KINDS:
        units[f"{kind}_p50_us"] = "us"
        units[f"{kind}_p99_us"] = "us"
    return units


class BenchError(Exception):
    """The benchmark cannot run here (no program, a child hung, ...)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Children cache bytecode in the checkout, as an installed package has
    # it, so that set-up time does not depend on this variable.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, stdin: bytes | None = None, keep: bool = False) -> dict:
    """Run one child to completion, draining its stdout through a pipe.

    Returns the child's wall time, its own peak RSS and exit code (from
    ``os.wait4`` in spawn.py), the stdout SHA-256 and line count, and the
    stdout bytes when ``keep`` is set.
    """
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(SPAWN), str(report_w), *argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, pass_fds=(report_w,),
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            start_new_session=True,
        )
    finally:
        os.close(report_w)
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        sha, lines, chunks = hashlib.sha256(), 0, []
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            sha.update(chunk)
            lines += chunk.count(b"\n")
            if keep:
                chunks.append(chunk)
        proc.wait()
        with os.fdopen(report_r, "rb") as report:
            report_r = None
            spawned = json.loads(report.read() or b"null")
    finally:
        timer.cancel()
        if proc.returncode is None:  # draining failed: stop and reap the child
            kill()
            proc.wait()
        proc.stdout.close()
        if report_r is not None:
            os.close(report_r)
    if killed.is_set():
        raise BenchError(f"{argv[1:]} still running after {CHILD_TIMEOUT_S:.0f} s")
    if proc.returncode != 0 or spawned is None:
        raise BenchError(f"could not start {argv}")
    return {**spawned, "digest": sha.hexdigest(), "lines": lines, "out": b"".join(chunks)}


def run_scaled(argv, keep: bool = False) -> dict:
    """``run_child``, its wall time also scaled to the nominal host (hostspeed.py)."""
    before = reference_s()
    child = run_child(argv, keep=keep)
    child["scaled"] = scale(child["wall"], before, reference_s())
    return child


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "gnomon_triples", *args]


def time_setup() -> float:
    """Scaled wall time of a fresh interpreter importing the package."""
    child = run_scaled([sys.executable, "-c", "import gnomon_triples"])
    if child["code"] != 0:
        raise BenchError("importing gnomon_triples failed")
    return child["scaled"]


# --- output checks: each returns the number of failed rows ----------------

def check_table(out: bytes, cli_args) -> int:
    lines = out.decode("ascii", "replace").splitlines()
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    return sum(a != b for a, b in zip(lines, golden)) + max(0, len(golden) - len(lines))


def check_jsonl(out: bytes, cli_args) -> int:
    failed = 0
    for line in out.splitlines():
        try:
            row = json.loads(line)
            ok = list(row) == JSONL_KEYS and row["x"] ** 2 + row["y"] ** 2 == row["z"] ** 2
        except (ValueError, TypeError, KeyError):
            ok = False
        failed += not ok
    return failed


def check_window(out: bytes, cli_args) -> int:
    """Checks that use no library code: the start side varies with the seed."""
    from sympy import factorint

    first, last = int(cli_args[2]), int(cli_args[4])
    per_side: Counter[int] = Counter()
    failed = 0
    previous = (first - 2, 0)
    for line in out.decode("ascii", "replace").splitlines():
        try:
            label, *cells = line.split("\t")
            n1, n2 = map(int, label.split("."))
            s, t, l, x, y, z = map(int, cells)
        except ValueError:
            failed += 1
            continue
        ok = (
            x * x + y * y == z * z and gcd(x, y) == 1
            and s == 2 * t * l and gcd(t, l) == 1 and l % 2 == 1
            and x == s + l * l and y == s + 2 * t * t
            and n1 == s // 2 and first <= s <= last
            # N.n is contiguous: the next split of this side, or split 1 of the next.
            and (s, n2) in ((previous[0], previous[1] + 1), (previous[0] + 2, 1))
        )
        if ok:
            per_side[s] += 1
            previous = (s, n2)
        failed += not ok
    for side in range(first, last + 1, 2):
        odd_primes = sum(1 for p in factorint(side) if p != 2)
        failed += abs((1 << odd_primes) - per_side[side])
    return failed


# --- workloads ------------------------------------------------------------

def cli_workload(runs, check, seconds: float, trace: bool) -> dict:
    """A CLI workload: timed rounds, or one checked round and traced passes.

    ``runs`` holds one CLI argument list per process of a round.  The
    first round's outputs are checked in full.  Every later output of a
    run must hash to that run's first digest, and that digest must equal
    the recorded one where one is recorded.  ``wall_s`` sums each run's
    median scaled pass.
    """
    deadline = perf_counter() + seconds
    passes, references, rows = [], [], []
    attempted = failed = 0
    for cli_args in runs:
        first = run_scaled(cli_argv(cli_args), keep=True)
        count = max(first["lines"], 1)  # a pass that fails counts every row it should have
        try:
            bad = check(first["out"], cli_args)
        except Exception as exc:  # a broken output must not stop the run
            print(f"perfbench: output check raised {exc!r}", file=sys.stderr)
            bad = count
        recorded = RECORDED_DIGESTS.get(tuple(cli_args))
        if first["code"] != 0 or recorded not in (None, first["digest"]):
            bad = count
        attempted += max(count, bad)
        failed += bad
        del first["out"]
        passes.append([first])
        references.append(first["digest"])
        rows.append(count)
    if trace:
        job = {"mode": "cli", "argvs": [list(a) for a in runs],
               "seconds": max(0.0, deadline - perf_counter())}
        result = run_worker(job)
        for digests, codes in zip(result["digests"], result["codes"]):
            for digest, code, reference, count in zip(digests, codes, references, rows):
                attempted += count
                failed += count if digest != reference or code != 0 else 0
        return {"attempted": attempted, "failed": failed, "metrics": layer_metrics(result)}
    setups = []
    last_round = sum(p[0]["wall"] for p in passes)
    # Set-up timings are spread over the run, one before each round.
    while len(passes[0]) < MIN_PASSES or perf_counter() + last_round < deadline:
        start = perf_counter()
        setups.append(time_setup())
        for cli_args, done, reference, count in zip(runs, passes, references, rows):
            child = run_scaled(cli_argv(cli_args))
            done.append(child)
            attempted += count
            if child["digest"] != reference or child["code"] != 0:
                failed += count
        last_round = perf_counter() - start
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup())
    wall = sum(statistics.median(p["scaled"] for p in done) for done in passes)
    every = [p for done in passes for p in done]
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "items_per_s": sum(rows) / wall,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in every),
        },
        "details": {"rows_per_round": sum(rows), "rounds": len(passes[0]),
                    "unscaled_median_s": sum(statistics.median(p["wall"] for p in done)
                                             for done in passes),
                    "unscaled_fastest_s": sum(min(p["wall"] for p in done) for done in passes)},
    }


def run_worker(job: dict) -> dict:
    child = run_child([sys.executable, str(WORKER)], stdin=json.dumps(job).encode(), keep=True)
    if child["code"] != 0:
        raise BenchError(f"worker exited with code {child['code']}")
    result = json.loads(child["out"].decode().splitlines()[-1])
    result["rss_mb"] = child["rss_mb"]
    return result


def log_uniform(rng: random.Random, count: int, high: int):
    """``count`` integers in [1, high], stratified evenly in log space."""
    for i in range(count):
        yield max(1, int(math.exp((i + rng.random()) / count * math.log(high))))


def random_split(rng: random.Random, half_side: int):
    """A random valid (t, l) split of S = 2*half_side, and its rank n."""
    from sympy import factorint

    atoms = [p**e for p, e in factorint(half_side).items() if p != 2]
    chosen = rng.getrandbits(len(atoms)) if atoms else 0
    l = math.prod(a for bit, a in enumerate(atoms) if chosen >> bit & 1)
    t = half_side // l
    rank = 1
    for mask in range(1 << len(atoms)):
        other = math.prod(a for bit, a in enumerate(atoms) if mask >> bit & 1)
        rank += half_side // other < t
    return t, l, rank


def triple_of(t: int, l: int) -> tuple[int, int, int]:
    s = 2 * t * l
    return s + l * l, s + 2 * t * t, s + 2 * t * t + l * l


def coprime_pair(rng: random.Random, max_t: int, max_l: int) -> tuple[int, int]:
    while True:
        t = int(math.exp(rng.uniform(0, math.log(max_t))))
        l = 2 * int(math.exp(rng.uniform(0, math.log(max_l / 2)))) + 1
        if gcd(t, l) == 1:
            return t, l


def widest_gnomon_split(max_half_side: int) -> tuple[int, int]:
    """The split with tl <= max_half_side whose shared suffix is longest."""
    best = (0, 1, 1)
    for t in range(1, math.isqrt(max_half_side) + 1):
        l = min(max_half_side // t, math.isqrt(2 * t * t) + 1)
        l -= 1 - l % 2
        while l > 0 and gcd(t, l) != 1:
            l -= 2
        if l > 0:
            best = max(best, (min(l * l, 2 * t * t), t, l))
    return best[1], best[2]


def gnomon_split(rng: random.Random, shared: int, max_half_side: int):
    """A split with tl <= max_half_side and a shared suffix of about ``shared`` terms.

    The suffix is the shorter of the l^2- and 2t^2-term progressions; the
    other factor is drawn log-uniformly from its valid range.
    """
    l_short = max(1, math.isqrt(shared))
    l_short -= 1 - l_short % 2
    t_short = max(1, math.isqrt(shared // 2))
    cases = [("l", l_short), ("t", t_short)]
    rng.shuffle(cases)
    for short, value in cases:
        if short == "l":  # l^2 < 2t^2, so t > l / sqrt(2)
            low, high = math.isqrt(value * value // 2) + 1, max_half_side // value
        else:  # 2t^2 < l^2, so l > sqrt(2) t
            low, high = math.isqrt(2 * value * value) + 1, max_half_side // value
        for _ in range(20):
            if low > high:
                break
            other = int(math.exp(rng.uniform(math.log(low), math.log(high + 1))))
            other = min(max(other, low), high)
            t, l = (other, value) if short == "l" else (value, other | 1)
            if l % 2 == 1 and gcd(t, l) == 1 and t * l <= max_half_side:
                return t, l
    return None


def point_ops(seed: int, counts: dict[str, int]) -> list[list]:
    """The seed's point operations: [kind, inputs, expected], shuffled.

    Inputs are distinct.  The expected values are computed here, without
    the library.  Each kind's cost driver is drawn stratified, so that
    one seed's list costs about as much as another's: the side for
    index_of, the suffix length for gnomon, the lattice size for render.
    """
    rng = random.Random(seed)
    ops = []
    seen = set()
    while len(seen) < counts["invert"]:
        t, l = coprime_pair(rng, INVERT_MAX_FACTOR, INVERT_MAX_FACTOR)
        if (t, l) not in seen:
            seen.add((t, l))
            legs = list(triple_of(t, l))
            rng.shuffle(legs)
            ops.append(["invert", legs, [t, l, 2 * t * l]])
    for half in sorted(set(log_uniform(rng, counts["index_of"], INDEX_MAX_HALF_SIDE))):
        t, l, rank = random_split(rng, half)
        ops.append(["index_of", triple_of(t, l), [half, rank]])
    # The widest suffix is always present, so peak memory does not hinge
    # on whether the seed happens to draw a large one.
    widest = widest_gnomon_split(GNOMON_MAX_HALF_SIDE)
    gnomon_splits = [widest]
    for shared in log_uniform(rng, counts["gnomon"] - 1, GNOMON_MAX_DRAWN_SUFFIX):
        split = gnomon_split(rng, shared, GNOMON_MAX_HALF_SIDE)
        if split is not None:
            gnomon_splits.append(split)
    for t, l in dict.fromkeys(gnomon_splits):
        x, y, z = triple_of(t, l)
        shared = min(l * l, 2 * t * t)
        legs = [x, y, z]
        rng.shuffle(legs)
        ops.append(["gnomon", legs, [2 * (z - shared) + 1, shared, 2 * z - 1]])
    kinds = [RENDER_KINDS[i % len(RENDER_KINDS)] for i in range(counts["render"])]
    lattice_ks = [min(k, RENDER_MAX_K) for k in log_uniform(
        rng, sum(kind.startswith("lattice") for kind in kinds), RENDER_MAX_K + 1)]
    rng.shuffle(lattice_ks)
    for kind in kinds:
        t, l = coprime_pair(rng, RENDER_MAX_T, RENDER_MAX_L)
        x, y, z = triple_of(t, l)
        k = lattice_ks.pop() if kind.startswith("lattice") else 1
        unit = MAX_SIDE_PX / (k * z) * rng.uniform(0.05, 0.99)
        rects = {"connected": 6, "lattice": 1 + 4 * k * k}.get(kind, 4)
        ops.append(["render", [kind, x, y, z, k, unit], [k * z * unit, rects]])
    rng.shuffle(ops)
    return ops


def point_workload(seed: int, counts: dict[str, int], seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + seconds
    ops = point_ops(seed, counts)
    setups = [] if trace else [time_setup() for _ in range(SETUP_REPEATS)]
    job = {"mode": "point", "ops": ops, "warmup": len(ops) // 20,
           "seconds": max(0.0, deadline - perf_counter()), "trace": trace}
    result = run_worker(job)
    out = {"attempted": result["attempted"], "failed": result["failed"],
           "failures": result["failures"]}
    latencies = {f"{kind}_{q}_us": result["latencies_us"][kind][q]
                 for kind in POINT_KINDS for q in ("p50", "p99")}
    if trace:
        out["metrics"] = {**layer_metrics(result), **latencies}
        return out
    walls, wall = result["walls"], statistics.median(result["scaled_walls"])
    out["metrics"] = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": len(ops) / wall,
        "peak_rss_mb": result["rss_mb"],
    }
    out["details"] = {**latencies, "ops_per_pass": len(ops), "passes": len(walls),
                      "unscaled_median_s": statistics.median(walls),
                      "unscaled_fastest_s": min(walls),
                      **{f"{k}_samples": v["n"] for k, v in result["latencies_us"].items()}}
    return out


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the worker's aggregates."""
    passes = len(result["traced_walls"])
    calls, self_s, counts = result["calls"], result["self_s"], result["counts"]
    metrics = {}
    for name, unit in per_layer_units().items():
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            value = calls.get(span, 0)
        elif stat == "self_s":
            value = self_s.get(span, 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = value / passes
    metrics["cli.stdout.write_calls"] = calls.get("cli.stdout", 0) / passes
    metrics["cli.stdout.write_s"] = self_s.get("cli.stdout", 0.0) / passes
    terms = counts.get("gnomons.overlap_terms.terms_built", 0)
    metrics["gnomons.overlap_terms.useful_ratio"] = (
        3 * calls.get("gnomons.overlap_terms", 0) / terms if terms else 0.0)
    metrics["trace.unattributed_s"] = (sum(result["traced_walls"]) - result["self_total"]) / passes
    metrics["trace.overhead_ratio"] = (
        statistics.median(result["traced_walls"]) / statistics.median(result["walls"]))
    for kind in POINT_KINDS:
        metrics[f"{kind}_p50_us"] = metrics[f"{kind}_p99_us"] = 0.0
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    size = SIZES[small]
    if name == "table_dense":
        args = ["table", "--to-s", str(size["table_to_s"])]
        return cli_workload([args], check_table, seconds, trace)
    if name == "enumerate_jsonl":
        args = ["enumerate", "--from-s", "2", "--to-s", str(size["jsonl_to_s"]), "--format", "jsonl"]
        return cli_workload([args], check_jsonl, seconds, trace)
    if name == "far_window":
        # Several windows, each at its own start: the cost of a side swings
        # with its factors, and more sides make one seed cost as much as another.
        rng = random.Random(seed)
        starts = sorted(10**11 + 2 * rng.randrange(10**9) for _ in range(size["far_windows"]))
        runs = [["enumerate", "--from-s", str(first), "--to-s", str(first + size["far_width"])]
                for first in starts]
        return cli_workload(runs, check_window, seconds, trace)
    return point_workload(seed, size["point_ops"], seconds, trace)


def result_line(result: dict, trace: bool) -> dict:
    units = per_layer_units() if trace else END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="shrunken inputs, for smoke runs")
    args = parser.parse_args(argv)
    if not (SRC / "gnomon_triples" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'gnomon_triples'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.all else (args.workload,)
    report = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
            report[name] = result_line(result, bool(args.trace))
            print_report(name, result, report[name])
            for failure in result.get("failures", []):
                print(f"perfbench: {name}: {failure}", file=sys.stderr)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report if args.all else report[names[0]]))
    return 0


def print_report(name: str, result: dict, line: dict) -> None:
    rate = line["failed"] / line["attempted"]
    for metric, entry in line["metrics"].items():
        print(f"{name:16} {metric:42} {entry['value']:.6g} {entry['unit']}")
    for metric, value in result.get("details", {}).items():
        unit = "us" if metric.endswith("_us") else "s" if metric.endswith("_s") else "count"
        print(f"{name:16} {metric:42} {value:.6g} {unit}")
    print(f"{name:16} {'error_rate':42} {rate:.6g} ratio "
          f"({line['failed']} of {line['attempted']} failed)")


if __name__ == "__main__":
    sys.exit(main())
