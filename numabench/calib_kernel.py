"""The calibration kernel, served from its own process.

    python3 numabench/calib_kernel.py

Each line read on stdin runs the kernel once and answers with its
seconds on stdout; end of input ends the process. Living in its own
process keeps the kernel's arrays out of the benchmark's peak memory.
The kernel is a fixed mix of work the simulator does: memory-bound
numpy (random gathers over a table larger than a core's private caches,
a sort, a cumulative sum), first touches of freshly mapped pages (the
engine allocates large arrays every step; adding them raised the
kernel's correlation with LULESH's walls on the reference host from
0.59 to 0.74), and interpreter-bound dictionary updates.
"""

import sys
import time

import numpy as np

rng = np.random.default_rng(12345)
TABLE = rng.random(1 << 23)                 # 64 MiB
INDEX = rng.integers(0, 1 << 23, 1 << 20)   # 1 Mi random gathers
KEYS = rng.integers(0, 1 << 40, 1 << 19)


def kernel() -> None:
    float(TABLE[INDEX].sum())
    np.sort(KEYS)
    np.cumsum(TABLE[: 1 << 21])
    fresh = np.ones(1 << 23)                # 64 MiB of fresh pages
    fresh[::512] += 1.0
    del fresh
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


kernel()  # the first call pays for page faults
for _line in sys.stdin:
    t0 = time.perf_counter()
    kernel()
    print(time.perf_counter() - t0, flush=True)
