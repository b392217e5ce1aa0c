"""Machine-speed calibration for the benchmark's timed figures.

The speed of a shared virtual machine drifts by 10-30 % over tens of
seconds to minutes, and CPU time drifts with wall time, so the drift is in
the machine, not in scheduling.  A median over one run cannot remove a drift
that lasts longer than the run.  So the runner times this fixed kernel
before, between and after the timed parts of every pass, and scales each
part's time by NOMINAL_S over the mean kernel time on its two sides.  Timed
figures are then in seconds of the reference machine at its usual speed.

The kernel mixes the kinds of work the workloads do: a LAPACK SVD of a
complex matrix the size of the largest T, vectorised complex exponentials
and spherical Bessel functions, an interpreter loop of numpy calls on
3-vectors, like the per-point checks that dominate a single-bin call, and
one that builds small Python objects, like the per-mode records of the
basis tables that dominate a single-pair reconstruction.  It shares
no code with ``roomtf``, so a change to the program cannot change it.
"""
from __future__ import annotations

import time

import numpy as np
from scipy import special

# Median time of one kernel call on the reference machine (README.md,
# "Machine"), with one BLAS thread.
NOMINAL_S = 0.023


class _Mode:
    __slots__ = ("n", "m")

    def __init__(self, n, m):
        if abs(m) > n:
            raise ValueError(m)
        self.n, self.m = n, m


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((121, 121)) + 1j * rng.standard_normal((121, 121))
        self.x = 10.0 * rng.random(20000)
        self.points = [tuple(p) for p in 3.0 * rng.random((600, 3))]
        self.box = np.array([6.0, 5.0, 2.5])

    def __call__(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        t0 = time.perf_counter()
        for _ in range(2):
            np.linalg.svd(self.matrix, compute_uv=False)
        np.exp((1j - 0.5) * self.x).sum()
        special.spherical_jn(5, self.x)
        inside = 0
        for p in self.points:
            q = np.asarray(p) - 0.5
            inside += bool(np.all(q > 0) and np.all(q < self.box))
        for _ in range(80):
            [_Mode(n, m) for n in range(11) for m in range(-n, n + 1)]
        return time.perf_counter() - t0
