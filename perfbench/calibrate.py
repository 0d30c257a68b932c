"""Fixed calibration work that tracks the speed of the machine, not of the program.

On a shared machine the same code runs 10-30% faster or slower from one
minute to the next.  Timing a fixed piece of work between the timed
samples of a run gives the machine's current speed, which the benchmark
divides out of its end-to-end times.  The work uses numpy and the
interpreter only, never the package under test, so no change to the package
can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median of sample_s() on the machine the benchmark was defined on (a 2-vCPU
# x86_64 VM, Python 3.11, numpy 2): the speed every reported time refers to.
NOMINAL_S = 0.080


class Calibration:
    """Two fixed kinds of work, each about half of one sample.

    Memory: rank-one updates of a 470 x 834 float array (3.1 MB), the shape
    and access pattern of a pivot on the C10 certification tableau.
    Interpreter: a loop of small numpy calls and tiny SVDs, the pattern of
    the grid drivers and of the small LPs of region enumeration.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal((470, 834))
        self.column = rng.standard_normal(470)
        self.row = rng.standard_normal(834)
        self.small = rng.standard_normal((8, 16))

    def sample_s(self) -> float:
        """Wall time of one fixed piece of work."""
        table, column, row, small = self.table, self.column, self.row, self.small
        start = time.perf_counter()
        for _ in range(24):
            table *= 0.5
            table -= np.outer(column, row)
        total = 0.0
        for i in range(1500):
            s = np.linalg.svd(small, compute_uv=False)
            total += float(s[0]) + int(np.argmin(small[i % 8])) + sum(k * k for k in range(20))
        return time.perf_counter() - start

