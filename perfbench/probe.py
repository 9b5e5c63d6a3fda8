"""Set-up probe: start a workload and exit when its first generation begins.

Usage: python3 perfbench/probe.py WORKLOAD SEED SIZE OUT_DIR

Prints ``ready`` the moment the first generation's variation stage is
entered, then exits. The caller times the process from launch to that
line: interpreter start, imports, config and population set-up.
"""

import os
import sys
from pathlib import Path

import checkout

checkout.use_source()

import dynevo.evolution  # noqa: E402
import workloads  # noqa: E402


def first_generation(*_):
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    name, seed, size, out = sys.argv[1:]
    dynevo.evolution.variation = first_generation
    workloads.WORKLOADS[name](int(seed), workloads.SIZES[size][name], Path(out))
    sys.exit("error: the workload ended before its first generation")
