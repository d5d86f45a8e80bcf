#!/usr/bin/env python
"""GC probe: what the cyclic collector costs each e2e workload, and why.

Builds each ``benchmarks/e2e`` workload at ``--seed`` (imported read-only
from ``benchmarks/e2e/workloads.py``), runs its warm-up pass, then times
``--passes`` more the way the benchmark does: collect and freeze the heap
before each pass, GC on during it.  Per pass it prints the collections
and the seconds spent in them by generation, and their share of the
pass's wall time.

Then one more pass runs with GC disabled, and a collection afterwards
counts what that pass left that only the cyclic collector can free:
objects per query, by type.  Zero means every job, task and event died
by reference count alone.  Printed, not gated: seconds depend on the box,
and the garbage count on the workload's queries.

    python tools/gc_probe.py [--workload drill_index ...] [--seed 7] [--passes 3] [--top 8]
"""

import argparse
import collections
import gc
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

from ticks import Meter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GENERATIONS = (0, 1, 2)


class GCTimer:
    """Collections and seconds per generation, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.count = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            gen = info["generation"]
            self.count[gen] += 1
            self.seconds[gen] += perf_counter() - self._started

    def __enter__(self) -> "GCTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _settle() -> None:
    """The benchmark's heap before a pass: collected, then frozen."""
    gc.collect()
    gc.freeze()


def cyclic_garbage(run_pass) -> collections.Counter:
    """Objects by type that ``run_pass()`` leaves for the cyclic collector."""
    _settle()
    gc.disable()
    try:
        run_pass()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def probe(name: str, seed: int, passes: int, top: int) -> None:
    w = WORKLOADS[name]
    gc.unfreeze()
    gc.collect()
    ctx = w.build(seed, False, Meter(0))
    w.run_pass(ctx, Meter(0), 0, False)
    print(f"{name} (seed {seed})")
    print(f"  {'pass':>4} {'wall_s':>7} {'queries':>7}"
          + "".join(f" {'gen' + str(g) + ' n':>8} {'s':>7}" for g in GENERATIONS)
          + f" {'gc_share':>8}")
    total_wall = total_gc = 0.0
    for p in range(1, passes + 1):
        _settle()
        with GCTimer() as timer:
            t0 = perf_counter()
            outcomes = w.run_pass(ctx, Meter(0), p, False)
            wall = perf_counter() - t0
        gc_s = sum(timer.seconds)
        total_wall += wall
        total_gc += gc_s
        print(f"  {p:>4} {wall:>7.3f} {len(outcomes):>7}"
              + "".join(f" {timer.count[g]:>8} {timer.seconds[g]:>7.4f}" for g in GENERATIONS)
              + f" {gc_s / wall:>8.3f}")
    print(f"  all passes: gc {total_gc:.4f} s of {total_wall:.3f} s wall, "
          f"share {total_gc / total_wall:.3f}")
    queries = []
    garbage = cyclic_garbage(
        lambda: queries.extend(w.run_pass(ctx, Meter(0), passes + 1, False))
    )
    n = max(1, len(queries))
    per_query = sum(garbage.values()) / n
    print(f"  cyclic garbage: {per_query:.1f} objects per query ({len(queries)} queries)")
    for type_name, count in garbage.most_common(top):
        print(f"    {type_name:<24}{count / n:>8.1f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS), help="workloads to probe (default: all)")
    ap.add_argument("--seed", type=int, default=7, help="workload seed")
    ap.add_argument("--passes", type=int, default=3, help="timed passes after warm-up")
    ap.add_argument("--top", type=int, default=8, help="garbage types listed")
    args = ap.parse_args(argv)
    for name in args.workload:
        probe(name, args.seed, args.passes, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
