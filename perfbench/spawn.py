"""Start one command, wait for it, and report its wall time and peak RSS.

    python3 perfbench/spawn.py REPORT_FD COMMAND [ARG...]

Writes {"wall": seconds, "rss_mb": peak RSS, "code": exit code} as JSON to
file descriptor REPORT_FD; the command keeps this process's stdin, stdout
and stderr.  A child's peak RSS as ``os.wait4`` reports it counts the
memory of the process that started it, so the benchmark starts every
measured child from this small process instead of from its own.
"""

import json
import os
import sys
from time import perf_counter


def main() -> None:
    report = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(report, False)
    start = perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    result = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024,
              "code": os.waitstatus_to_exitcode(status)}
    os.write(report, json.dumps(result).encode())


if __name__ == "__main__":
    main()
