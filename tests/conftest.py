import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_TABLE = Path(__file__).parent / "data" / "appendix_table_s100.txt"
# pyproject's pythonpath puts src on this interpreter's path; the interpreters a test
# starts find it through PYTHONPATH.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Runs the prelude in argv[1] (a patch, say), then the CLI on the arguments after it, and
# then writes to stderr how many write(2) calls the run made (0 without /proc/self/io)
# and how many objects the collector has frozen.
CHILD = """\
import gc, os, sys
from gnomon_triples import cli

def syscw():
    if not os.path.exists("/proc/self/io"):
        return 0
    with open("/proc/self/io") as io:
        return int(dict(line.split(":") for line in io)["syscw"])

exec(sys.argv.pop(1))
before = syscw()
try:
    cli.entry_point()
finally:
    sys.stderr.write(f"{syscw() - before} {gc.get_freeze_count()}\\n")
"""


@pytest.fixture(scope="session")
def run_child():
    """run_child(*argv, flags=(), prelude="", **kwargs): the CLI on argv in a new
    interpreter started with flags, after prelude.

    It returns (exit code, stdout, stderr, write(2) calls, objects frozen), with the
    child's last stderr line taken off: off stdout instead with stderr=STDOUT.
    """
    def run(*argv, flags=(), prelude="", **kwargs):
        # -B: no bytecode-cache writes to count.
        result = subprocess.run([sys.executable, "-B", *flags, "-c", CHILD, prelude, *argv],
                                **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs},
                                text=True, timeout=60)
        merged = result.stderr is None  # stderr=STDOUT: the report ends stdout
        text = result.stdout if merged else result.stderr
        rest, newline, report = text.removesuffix("\n").rpartition("\n")
        out, err = (rest + newline, None) if merged else (result.stdout, rest + newline)
        return result.returncode, out, err, *map(int, report.split())

    return run


@pytest.fixture(scope="session")
def golden_table_text() -> str:
    return GOLDEN_TABLE.read_text(encoding="utf-8")
