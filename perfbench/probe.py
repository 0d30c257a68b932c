"""Set-up probe: a fresh interpreter imports the package and completes one warm-up item.

Usage: python3 perfbench/probe.py WORKLOAD.  Prints ``ready`` when done; the
parent times the interval from spawning this process to that line.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].warmup()
    print("ready", flush=True)
