"""Machine-speed reference for the benchmark's timings.

On a shared host, other tenants slow execution itself (not scheduling: CPU
time tracks wall time) by up to 2x, in stretches that last from a fraction
of a second to minutes, often a whole run.  No median over one run removes a
slowdown that covers the run.  So right before and after each timed section
(about 0.1 s of on-line ticks, a campaign call, an `abc-eqf run`, a set-up)
the benchmark times a fixed kernel: small numpy operations driven from
Python, like the filters' own work, but independent of `abc_eqf`.  The
section's factor is REFERENCE_S over the mean of the two kernel times; its
time times its factor is the time it would have taken with the machine at
the reference speed.  The slowdown of one CPU hardly correlates with that
of the other (0.15 over 800 pairs), so a section run by processes on every
CPU, a campaign, is bracketed by the kernel pinned to each CPU in turn.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_S = 0.010        # the kernel's time on the quiet 2-CPU machine of README.md
KERNEL_ITERS = 200
EACH_CPU_RUNS = 2          # kernel runs per CPU around a section of several seconds

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((3, 3))
_B = _rng.standard_normal((15, 15))
_V = _rng.standard_normal(3)


def kernel() -> float:
    """A fixed mix of 3x3 and 15x15 numpy work and Python bookkeeping."""
    acc = 0.0
    for i in range(KERNEL_ITERS):
        w = np.cross(_V, _A[0])
        n = np.linalg.norm(w)
        r = np.eye(3) + np.sin(n) * _A + (1.0 - np.cos(n)) * (_A @ _A)
        p = _B @ _B.T
        p = 0.5 * (p + p.T)
        x = np.linalg.solve(p[:3, :3] + 3.0 * np.eye(3), r[:, 0])
        entry = {"k": i, "x": x}
        acc += float(entry["x"][0]) + r[1, 1]
    return acc


def kernel_s(each_cpu: bool = False) -> float:
    """Run the kernel once and return its wall time; with `each_cpu`,
    EACH_CPU_RUNS times pinned to each CPU this process may use, and return
    the mean time."""
    if not each_cpu:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.extend(kernel_s() for _ in range(EACH_CPU_RUNS))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def factor(before_s: float, after_s: float) -> float:
    """Speed factor of a section between two kernel runs: REFERENCE_S over
    their mean time."""
    return 2.0 * REFERENCE_S / (before_s + after_s)


def timed(fn, each_cpu: bool = False):
    """Run `fn()` between two kernel runs; return its result, its wall time
    and that time at the reference speed.  `each_cpu` is for work spread
    over processes on every CPU."""
    before = kernel_s(each_cpu)
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, wall * factor(before, kernel_s(each_cpu))
