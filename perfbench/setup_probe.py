#!/usr/bin/env python3
"""Time one benchmark set-up in a fresh interpreter: imports, then inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

run.py starts this several times, one process after the other, and reports
the median total as setup_s. Prints {"import_s": ..., "inputs_s": ...}.
"""
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    from perfbench import workloads
    t1 = time.perf_counter()
    workloads.WORKLOADS[workload](seed, workdir).setup()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
