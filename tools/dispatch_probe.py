#!/usr/bin/env python
"""Dispatch probe: what a task's control plane costs each e2e workload.

Builds each ``benchmarks/e2e`` workload at ``--seed`` (imported read-only
from ``benchmarks/e2e/workloads.py``) and runs its warm-up pass.  Then:

* one pass with the kernel's ``heappush`` wrapped: every entry the
  simulator queues, per query, by callback kind (the callback's qualified
  name, plus the generator's for a ``Process._step``).  Counted off the
  kernel itself, so it is the event baseline any change that removes or
  batches events is measured against;
* one pass under cProfile: interpreter calls per task by module family.
  A Python function counts in its own module's family; a builtin (``len``,
  ``heappush``, ``dict.get``, ...) counts in its caller's.

Families: ``kernel`` (``sim/events``), ``net`` (``sim/netmodel``,
``sim/resources``, ``cluster/messages``, ``faults``), ``scheduler``
(``cluster/scheduler``, ``cluster/membership``, ``planner/cost``),
``master`` (the rest of ``cluster`` but ``node``), ``leaf``
(``cluster/node``, ``engine``, ``columnar``, ``storage``), ``index``
(``index``) and ``other`` (SQL, planner, client, gateway, numpy, the
standard library).  Printed, not gated: counts repeat on one seed, and
move with the workload's queries.

    python tools/dispatch_probe.py [--workload drill_index ...] [--seed 7] [--top 12]
"""

import argparse
import cProfile
import collections
import os
import sys
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

import repro.sim.events as events  # noqa: E402
from ticks import Meter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = os.path.join(ROOT, "src", "repro") + os.sep

#: (path prefix under ``src/repro``, family); the first match wins.
FAMILIES = (
    ("sim/events", "kernel"),
    ("sim/", "net"),
    ("cluster/messages", "net"),
    ("faults/", "net"),
    ("cluster/scheduler", "scheduler"),
    ("cluster/membership", "scheduler"),
    ("planner/cost", "scheduler"),
    ("cluster/node", "leaf"),
    ("cluster/", "master"),
    ("engine/", "leaf"),
    ("columnar/", "leaf"),
    ("storage/", "leaf"),
    ("index/", "index"),
)
FAMILY_ORDER = ("kernel", "net", "scheduler", "master", "leaf", "index", "other")


def family_of(filename: str) -> str:
    if not filename.startswith(SRC):
        return "other"
    rel = filename[len(SRC):].replace(os.sep, "/")
    for prefix, family in FAMILIES:
        if rel.startswith(prefix):
            return family
    return "other"


def callback_kind(fn) -> str:
    if isinstance(fn, partial):
        return f"partial({callback_kind(fn.func)})"
    kind = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, events.Process) and kind == "Process._step":
        kind += ":" + owner._gen.__qualname__  # noqa: SLF001
    return kind


def pushes_by_kind(run_pass) -> collections.Counter:
    """Kernel queue entries by callback kind while ``run_pass()`` runs."""
    counts: collections.Counter = collections.Counter()
    real = events.heappush

    def counting_heappush(queue, entry):
        counts[callback_kind(entry[2])] += 1
        real(queue, entry)

    events.heappush = counting_heappush
    try:
        run_pass()
    finally:
        events.heappush = real
    return counts


def calls_by_family(run_pass) -> collections.Counter:
    """Interpreter calls by module family while ``run_pass()`` runs."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_pass()
    finally:
        prof.disable()
    counts: collections.Counter = collections.Counter()
    for entry in prof.getstats():
        if isinstance(entry.code, str):
            continue  # a builtin: counted below, in its callers' families
        family = family_of(entry.code.co_filename)
        counts[family] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                counts[family] += sub.callcount
    return counts


def probe(name: str, seed: int, top: int) -> None:
    w = WORKLOADS[name]
    ctx = w.build(seed, False, Meter(0))
    w.run_pass(ctx, Meter(0), 0, False)

    pushed_pass = []
    pushes = pushes_by_kind(lambda: pushed_pass.extend(w.run_pass(ctx, Meter(0), 1, False)))
    queries = max(1, len(pushed_pass))
    print(f"{name} (seed {seed}): {sum(pushes.values()) / queries:.2f} heap pushes per query")
    for kind, count in pushes.most_common(top):
        print(f"  {count / queries:>9.2f}  {kind}")
    rest = sum(pushes.values()) - sum(c for _, c in pushes.most_common(top))
    if rest:
        print(f"  {rest / queries:>9.2f}  ({len(pushes) - top} other kinds)")

    profiled = []
    calls = calls_by_family(lambda: profiled.extend(w.run_pass(ctx, Meter(0), 2, False)))
    tasks = sum(o.stats.tasks_total for o in profiled if o.stats is not None)
    per = max(1, tasks)
    print(f"  {sum(calls.values()) / per:.1f} interpreter calls per task "
          f"({tasks / max(1, len(profiled)):.2f} tasks per query)")
    for family in FAMILY_ORDER:
        print(f"  {calls[family] / per:>9.1f}  {family}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS), help="workloads to probe (default: all)")
    ap.add_argument("--seed", type=int, default=7, help="workload seed")
    ap.add_argument("--top", type=int, default=12, help="callback kinds listed")
    args = ap.parse_args(argv)
    for name in args.workload:
        probe(name, args.seed, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
