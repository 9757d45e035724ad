"""Run a command; print its exit code, wall s, CPU s and peak RSS MB as JSON.

``run.py`` starts every timed CLI command through this small process. The
kernel reports a process's peak RSS as at least the high-water mark of the
memory it was started from, and a child started by vfork (as ``subprocess``
does) starts from its parent's memory. Launched straight from the benchmark,
which holds the generated inputs, the CLI would inherit the benchmark's peak
instead of showing its own.

Usage: python3 timed.py COMMAND [ARG ...]
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({
        "rc": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
