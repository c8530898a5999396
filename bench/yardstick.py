"""A fixed piece of pure-Python work that measures how fast the machine runs
right now, so that job and set-up times can be rescaled to a steady speed.

On a shared host, other tenants slow every instruction this process runs, in
phases from under a second to several minutes: the same job's wall time (and
its CPU time alike) moved by up to half between runs.  The yardstick is run
right before and right after every timed job, and the job time is rescaled
by NOMINAL_S over the mean of the two yardstick times:

    normalized = measured * NOMINAL_S / ((before + after) / 2)

that is, the time the same work would take on a machine where the yardstick
takes NOMINAL_S.  A set-up sample runs it twice right after set-up, in the
set-up's own interpreter (setup_probe.py).  Its work resembles the program's (float arithmetic, method
calls on small objects, comprehensions, dict lookups, string formatting) and
never calls fuzzylos, so a change to the package cannot move it.  It runs with
the garbage collector off, so the program's heap does not slow it either.

Never change this file's work or NOMINAL_S in a change that measures the
program: every normalized time ever recorded is in its units.
"""

from __future__ import annotations

import gc
from time import perf_counter

NOMINAL_S = 0.02  # about the yardstick's time on an unloaded 2-core host
STEPS = 40  # grid steps per axis


class _Trapezoid:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d

    def degree(self, x: float) -> float:
        if x <= self.a or x >= self.d:
            return 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        if x <= self.c:
            return 1.0
        return (self.d - x) / (self.d - self.c)


_TERMS = tuple(_Trapezoid(10.0 * i - 8.0, 10.0 * i, 10.0 * i + 4.0, 10.0 * i + 12.0) for i in range(6))
_RULES = tuple((i, j, float(6 * i + j)) for i in range(6) for j in range(6))


def work(steps: int = STEPS) -> tuple[float, int]:
    """A small zero-order Sugeno surface over a steps x steps grid, written as
    CSV text; returns a checksum so that no step can be skipped."""
    total = 0.0
    length = 0
    for gi in range(steps):
        x = gi * 60.0 / steps
        dx = [term.degree(x) for term in _TERMS]
        for gj in range(steps):
            y = gj * 60.0 / steps
            dy = {k: term.degree(y) for k, term in enumerate(_TERMS)}
            num = den = 0.0
            for i, j, z in _RULES:
                w = min(dx[i], dy[j])
                if w > 0.0:
                    num += w * z
                    den += w
            value = num / den if den else 0.0
            total += value
            length += len(f"{x:.6g},{y:.6g},{value:.6g}")
    return total, length


def measure() -> float:
    """Wall time of one run of `work`, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()

