"""Speed probe: a fixed piece of work that measures how fast the machine runs now.

The benchmark shares a few cores of a host with other tenants, whose load
slows it in bursts of seconds to a minute, by up to 1.8x, and whose speed
differs from one period to the next.  The child runs `probe()` before
each op and after the last, so every run carries samples of its own
machine speed, taken in the same processes as the ops and spread over the
same stretch of time.  run.py divides each op's time by its pass's median
probe time over `REFERENCE_S`, which gives it in seconds at the reference
machine's speed.

The probe exercises what the workloads spend their time on: big-integer
rationals (the exact series), the interpreter loop, mpmath arithmetic
(roots), many small numpy calls (the refinement's tiny eigenvalue
problems, the small lattice builds) and numpy dense and memory-bound
kernels (lattice, Pauli).  It uses none of the package's code, so a change
to the program moves the op times and leaves the probe as it was.  It
touches no global state the program reads: mpmath runs in a private
context and numpy in a private generator.
"""
from __future__ import annotations

import time
from fractions import Fraction

import mpmath
import numpy as np

# Median probe time on the reference machine, a 2-vCPU Intel Xeon guest
# (Python 3.11, numpy 2.4 on one OpenBLAS thread).
REFERENCE_S = 0.04
# probe samples a pass takes, spread over the slots before its ops and after them
PER_PASS = 12


def _work() -> None:
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(i, i * i + 1)
    x = 0
    for i in range(40_000):
        x += i * i % 7
    ctx = mpmath.MPContext()
    ctx.dps = 30
    m = ctx.mpf(1)
    for i in range(1, 1500):
        m = m * ctx.mpf(i + 1) / i
    rng = np.random.default_rng(0)
    small = rng.random((6, 6)) + 1j * rng.random((6, 6))
    for i in range(400):
        np.linalg.eigvals(small + i * 1e-3)
    a = rng.random((200, 200))
    for _ in range(3):
        a = a @ a
        a /= np.abs(a).max()
    v = rng.random(1 << 17)
    for _ in range(6):
        v = np.sort(v)[::-1].copy()


def probe() -> int:
    """Run the probe once; returns its wall time in nanoseconds."""
    start = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - start
