"""The frozen reference kernel and the meter that interleaves it.

Raw wall and CPU time on the shared box swing by tens of percent within
seconds (README.md, "Why raw wall time is not gated"), so no gated metric
is a raw time.  Every timed operation is followed by ``k`` runs of
:func:`ref_tick`; a pass costs ``sum(op wall) / mean(tick wall)`` ticks,
a ratio of two things slowed by the same neighbour at the same moment.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Nominal tick duration on the seed box; 2500 ticks make one ``ref_s``.
NOMINAL_TICK_S = 0.0004
TICKS_PER_REF_S = 2500.0

_A = np.arange(20_000)
_B = np.empty_like(_A)


def ref_tick() -> int:
    """An interpreter loop, then 4 x ``(A*3+1).sum()`` over 20 000 int64.

    The numpy half writes into a preallocated buffer.  Written as
    ``(_A * 3 + 1).sum()`` each product is a fresh 160 KB array, which
    glibc serves from ``mmap`` (188 page faults per tick, tick 0.73 ms) or
    from the heap (no faults, 0.35 ms) depending on what the program
    freed before: a two-valued yardstick.

    FROZEN: editing this function rescales every timing metric, which
    makes the benchmark incomparable with every earlier run.
    """
    x = 0
    for i in range(4000):
        x += i * i % 7
    for _ in range(4):
        np.multiply(_A, 3, out=_B)
        np.add(_B, 1, out=_B)
        x += int(_B.sum())
    return x


class Meter:
    """Wall time of operations and of the ticks run between them."""

    def __init__(self, k: int):
        self.k = k
        self.op_s = 0.0
        self.tick_s = 0.0
        self.ticks = 0
        self.op_walls = []

    def timed(self, fn, *args):
        """Run ``fn(*args)`` timed, then ``k`` reference ticks."""
        t0 = perf_counter()
        out = fn(*args)
        t1 = perf_counter()
        for _ in range(self.k):
            ref_tick()
        t2 = perf_counter()
        self.op_s += t1 - t0
        self.op_walls.append(t1 - t0)
        self.tick_s += t2 - t1
        self.ticks += self.k
        return out

    @property
    def tick_wall_s(self) -> float:
        return self.tick_s / self.ticks

    @property
    def cost_ticks(self) -> float:
        """Operation time in units of this meter's own mean tick."""
        return self.op_s / self.tick_wall_s

    @property
    def cost_ref_s(self) -> float:
        return self.cost_ticks / TICKS_PER_REF_S
