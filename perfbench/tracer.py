"""Per-layer timing of gnomon_triples, done from outside the package.

The tracer replaces module attributes of the loaded package with timing
wrappers; it edits no source file.  A function imported by name into
another module (``ordering.enumerate_partitions`` is ``partitions``'
function under a second name) is wrapped under every name it has, so calls
between modules are caught too.

Statistics are aggregated on the fly, per span name: call count, self time
(the span's duration minus the part its child spans cover) and a few
output counts.  No span list is kept, so a run of a million rows holds a
few dozen numbers.
"""

from __future__ import annotations

import hashlib
import io
import sys
from collections import defaultdict
from time import perf_counter

# The layers and the public functions timed in each.  ``oracle`` is
# reference code used only by ``verify`` and is deliberately left out.
WRAPPED = (
    ("partitions", "factor_side"),
    ("partitions", "enumerate_partitions"),
    ("triples", "construct"),
    ("triples", "invert"),
    ("ordering", "stream"),
    ("ordering", "index_of"),
    ("ordering", "render_row"),
    ("ordering", "render_table"),
    ("gnomons", "gnomon_pair"),
    ("gnomons", "pair_progressions"),
    ("gnomons", "overlap_terms"),
    ("diagrams", "render"),
    ("cli", "main"),
)

ROW_FORMATS = ("appendix", "tsv", "jsonl")


def _render_row_span(args, kwargs) -> str:
    fmt = kwargs.get("fmt", args[1] if len(args) > 1 else None)
    return f"ordering.render_row.{fmt}"


def _count_terms(counts, args, result) -> None:
    counts["gnomons.overlap_terms.terms_built"] += len(result[0])


def _count_table(counts, args, result) -> None:
    counts["ordering.render_table.bytes"] += len(result)


def _count_svg(counts, args, result) -> None:
    counts["diagrams.render.bytes"] += len(result)
    counts["diagrams.render.elements"] += result.count("<") - result.count("</")


def _count_write(counts, args, result) -> None:
    # All program output is ASCII, so characters equal bytes.
    counts["cli.stdout.bytes"] += len(args[0])


_SPAN_NAME = {("ordering", "render_row"): _render_row_span}
_MEASURE = {
    ("gnomons", "overlap_terms"): _count_terms,
    ("ordering", "render_table"): _count_table,
    ("diagrams", "render"): _count_svg,
}


class Tracer:
    """Self time and counts per span, aggregated as calls return."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # One entry per open span: seconds covered by its finished children.
        self._covered: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def wrap(self, name, fn, span_name=None, measure=None):
        """A wrapper that records one span per call of ``fn``."""
        covered, calls, self_s, counts = self._covered, self.calls, self.self_s, self.counts

        def traced(*args, **kwargs):
            span = span_name(args, kwargs) if span_name else name
            covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                calls[span] += 1
                self_s[span] += end - start - covered.pop()
                if covered:
                    covered[-1] += end - start
            if measure is not None:
                measure(counts, args, result)
                # Counting is tracer overhead, not the caller's own work.
                if covered:
                    covered[-1] += perf_counter() - end
            return result

        return traced

    def wrap_generator(self, name, fn):
        """A wrapper for a generator function: one span per item produced."""
        covered, calls, self_s, counts = self._covered, self.calls, self.self_s, self.counts
        rows = name + ".rows"

        def traced(*args, **kwargs):
            calls[name] += 1
            items = fn(*args, **kwargs)
            while True:
                covered.append(0.0)
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    self_s[name] += end - start - covered.pop()
                    if covered:
                        covered[-1] += end - start
                counts[rows] += 1
                yield item

        return traced

    def install(self, package) -> None:
        """Wrap every binding of the WRAPPED functions in ``package``'s modules."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        wrappers = {}
        for module_name, function_name in WRAPPED:
            original = getattr(sys.modules[f"{package.__name__}.{module_name}"], function_name)
            name = f"{module_name}.{function_name}"
            if function_name == "stream":
                wrappers[id(original)] = self.wrap_generator(name, original)
            else:
                key = (module_name, function_name)
                wrappers[id(original)] = self.wrap(
                    name, original, _SPAN_NAME.get(key), _MEASURE.get(key)
                )
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def traced_stdout(self, inner):
        """A stdout stand-in whose writes are the ``cli.stdout`` span."""
        return _TracedStdout(self.wrap("cli.stdout", inner.write, measure=_count_write), inner)


class _TracedStdout:
    def __init__(self, write, inner) -> None:
        self.write = write
        self._inner = inner

    def flush(self) -> None:
        self._inner.flush()


class _DigestRaw(io.RawIOBase):
    """The end of a stdout pipe: keeps only a SHA-256 and a byte count."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.size = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha.update(data)
        self.size += len(data)
        return len(data)


def digest_stdout():
    """A text stream buffered like stdout on a pipe, and the digest it feeds."""
    raw = _DigestRaw()
    return raw, io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
