"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from interpreter start-up (after the interpreter
itself) to a built workload: `import hypercell`, config parsing, and
the bodies, direction laws and run configs of every block, the
cap-starved law included.
"""
import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hypercell  # noqa: E402,F401
import workloads  # noqa: E402

workloads.blocks(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - _T0)
