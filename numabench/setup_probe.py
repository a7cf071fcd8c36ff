"""Time one set-up from a fresh interpreter: imports plus building the
machine preset, program, engine and profiler of a workload.

    python3 numabench/setup_probe.py <workload>

Prints the seconds as its only line. ``run.py`` runs it several times
and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402

cases.ready(sys.argv[1])
print(time.perf_counter() - T0)
