"""Time one workload set-up in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Covers importing juliadim, building the workload's parameter tables and
models, and one warm-up evaluation, in seconds corrected for the host's
speed (speed.py); run.py takes the median of several.
"""

import sys
from pathlib import Path

from speed import time_setup
from workloads import WORKLOADS, import_program

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    root = Path(__file__).resolve().parent.parent
    workload = WORKLOADS[name](seed, root / "perfbench" / "out")

    def setup():
        import_program(root)
        workload.setup()

    print(time_setup(setup))
