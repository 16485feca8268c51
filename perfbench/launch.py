"""Run one command and report its wall time, exit code and peak RSS.

Usage: python3 -S perfbench/launch.py REPORT command [args...]

Writes "wall_seconds exit_code maxrss_kb" to REPORT, from ``os.wait4``.  The
benchmark starts every job through this small process instead of forking it
directly: a child's ru_maxrss includes the resident memory of the process it
was forked from, so a job forked from the benchmark itself would report at
least the benchmark's own peak RSS.
"""

import os
import signal
import sys
import time


def main() -> None:
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGTERM))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w") as fh:
        fh.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")


if __name__ == "__main__":
    main()
