"""Run the projlin CLI as ``python3 -m projlin.cli ARGS`` does, and record
the process's own peak RSS.

Usage: PERFBENCH_PEAK_RSS_FILE=PATH python3 perfbench/launch.py ARGS

The parent cannot take the peak from ``ru_maxrss``: Linux carries the
parent's own peak into the figure of a child started with vfork, which is
how subprocess starts it.  ``VmHWM`` in /proc/self/status counts only the
memory this program touched after exec, so it is written to PATH at exit.
"""

import atexit
import os
import runpy
import sys


def write_peak_rss() -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_PEAK_RSS_FILE"], "w", encoding="ascii") as fh:
        fh.write(peak_kb + "\n")


if __name__ == "__main__":
    atexit.register(write_peak_rss)
    sys.argv[0] = "projlin"
    runpy.run_module("projlin.cli", run_name="__main__", alter_sys=True)
