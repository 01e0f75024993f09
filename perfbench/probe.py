"""Set-up probe: start a fresh interpreter, build a workload's inputs and
stop at its first stage solve.

Usage: python3 perfbench/probe.py <src dir> <workload> <seed> <work dir>

Prints ``ready`` on standard output the moment the first stage solve is
called (from whichever process calls it), then exits. The parent times the
interval from starting this process to reading that line.
"""

import os
import sys
from pathlib import Path

# everything the libraries print goes to stderr; fd `ready_fd` carries the signal
ready_fd = os.dup(1)
os.dup2(2, 1)


class FirstStage(Exception):
    """Raised in place of the first stage solve."""


def stop(*args, **kwargs):
    os.write(ready_fd, b"ready\n")
    raise FirstStage


def main() -> None:
    src, name, seed, workdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    sys.path.insert(0, src)
    import dcsched.engine
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(seed, workdir)
    dcsched.engine.solve_stage = stop
    try:
        workload.first_stage(inputs)
    except FirstStage:
        return
    sys.exit("probe: the workload finished without a stage solve")


if __name__ == "__main__":
    main()
