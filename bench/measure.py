"""Run one command and report its wall time and resource usage.

Usage: python3 bench/measure.py <command> [<argument> ...]

The command inherits stdin, stdout and stderr. When it has exited, one
line goes to stderr: RUSAGE_PREFIX and a JSON object with its exit code,
the wall seconds from spawn to exit, its user plus system CPU seconds and
its peak RSS in KiB. This process exits with the command's exit code.

The benchmark starts every command through this small process. On Linux a
child's ru_maxrss starts from the peak RSS of the process it was forked
from, so a command forked straight from the benchmark, which holds and
checks large outputs, would report the benchmark's memory as its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

RUSAGE_PREFIX = "BENCH-RUSAGE "


def main(argv: list[str]) -> int:
    start = perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }
    sys.stderr.write(RUSAGE_PREFIX + json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
