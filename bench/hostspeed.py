"""Host-speed reference: a fixed kernel timed next to the program's work.

The benchmark's machine shares its physical host with other tenants and
switches, every few seconds to minutes, between a fast and a slow
regime: the same instructions take up to 1.7x longer, CPU time still
equal to wall time.  A regime that outlasts a run moves every timing of
that run, and no estimator over the run's own timings can tell it from
a change in the program.

So the worker times this kernel, which is benchmark code that no change
to the package touches, before and after each timed piece of work.  The
kernel's time over its nominal time is the host factor of that moment
(about 1.0 on the reference machine in its slower regime, 0.6-0.7 in its
faster one), and each timing is divided by the mean factor around it:
the end-to-end timings are in seconds of the reference host.  The kernel
has three parts, one for each kind of work the workloads spend their
time on:

* `interp`: a Python loop of small (30 x 300) matrix-vector products,
  like the per-node work of the question-classification regime;
* `matvec`: 300 x 300 matrix-vector products and `tanh`, like the
  per-node work of the sentiment regime;
* `stream`: reductions over a 4 MB array, twice the per-core L2 cache,
  so they run at the shared cache's bandwidth, like the trainer's
  large gradient and parameter arrays.

A regime change does not slow the three kinds alike (interpreted code
up to 1.7x, BLAS and streaming less), so each workload runs only the
parts that resemble its own work, and its factor is their mean.

The arrays are allocated once (about 4.3 MB of resident memory, counted
in the worker's `peak_rss_mb`) and the garbage collector is off while
the kernel runs, so the program's heap cannot slow the kernel down.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# Usual seconds of each part, run between pieces of the program's work, on
# the reference machine (2-vCPU "Intel(R) Xeon(R) Processor" virtual
# machine, numpy 2.4.6, OpenBLAS 0.3.31) in the slower of its two regimes,
# where it spends most of its time; the faster regime reads about 0.65.
NOMINAL = {"interp": 3.5e-3, "matvec": 3.0e-3, "stream": 3.0e-3}
REPEATS = 3  # kernel runs per sample; the sample takes each part's median


class HostSpeed:
    def __init__(self, parts: tuple):
        self.names = parts  # which of NOMINAL's parts a sample runs
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=(30, 300))
        self.large = rng.normal(size=(300, 300))
        self.x = rng.normal(size=(64, 300))
        self.buffer = rng.normal(size=4 * 2 ** 20 // 8)
        self.samples: list = []
        self.parts: list = []

    def _interp(self) -> float:
        started = perf_counter()
        for _ in range(6):
            total = 0.0
            for row in self.x:
                total += float(np.maximum(self.small @ row + 0.1, 0.0).sum())
        return perf_counter() - started

    def _matvec(self) -> float:
        started = perf_counter()
        for _ in range(2):
            for row in self.x:
                np.tanh(self.large @ row)
        return perf_counter() - started

    def _stream(self) -> float:
        started = perf_counter()
        for _ in range(8):
            self.buffer.sum()
        return perf_counter() - started

    def sample(self) -> float:
        """Run the chosen parts REPEATS times; record the median time of
        each and return the host factor: the mean of the parts' times
        over their nominal times."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernels = [getattr(self, "_" + name) for name in self.names]
            runs = [[kernel() for kernel in kernels] for _ in range(REPEATS)]
        finally:
            if enabled:
                gc.enable()
        parts = {k: statistics.median(run[i] for run in runs)
                 for i, k in enumerate(self.names)}
        factor = statistics.fmean(parts[k] / NOMINAL[k] for k in self.names)
        self.parts.append(parts)
        self.samples.append(factor)
        return factor
