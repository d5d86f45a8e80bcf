"""Fused scan pipelines with morsel-driven parallelism (DESIGN.md S51).

A :class:`FusedPipeline` runs one scan task as the operator-at-a-time
executor does — both filter on the encoded chunks and gather only the
payload columns of matching rows, through the same
:func:`repro.engine.executor._select_rows` and
:class:`~repro.columnar.encoding.ChunkReader` — and differs from it in
two things only: the gather is split into ~64K-row morsels, and the
morsels run on a thread pool.

* The SmartIndex / B+ tree probe and the predicate masks are computed
  once per block on the driving thread (the probe is block-granular by
  construction; a dictionary chunk's predicate verdicts are a lookup
  table that would otherwise be rebuilt per morsel).
* Each morsel gathers the payload columns at its share of the matching
  row ids and, where merging is exact, folds them straight into a
  morsel-local partial aggregate merged through the existing
  :meth:`~repro.engine.aggregates.GroupedPartial.merge` path.

The driver splits the block's row range into ~64K-row morsels and runs
them on a shared :class:`~concurrent.futures.ThreadPoolExecutor` (numpy
gather/reduce kernels release the GIL; gathering a string column copies
object pointers under the GIL — see docs/API.md).
Pool size comes from ``LeafConfig.worker_threads`` (0 = ``os.cpu_count()``).

Byte-identity contract (enforced by the differential suite): with the
flag on, every :class:`~repro.engine.executor.TaskResult` — rows, bytes,
partial states *and* the cost-accounting report driving the simulated
clock — is identical to the unfused path.  Two mechanisms guarantee it:

1. Morsel-local partial aggregation is used only when every aggregate
   merges without floating-point reassociation (``COUNT`` always;
   ``SUM``/``MIN``/``MAX`` over integer arguments).  Float ``SUM`` /
   ``AVG`` sum in morsel order, which differs from one whole-block
   ``reduceat`` in the last ulps — those plans (and anything with joins
   or a post-join filter) instead concatenate the gathered morsels in
   block-row order and run the executor's own tail on a bit-identical
   frame.
2. Cost accounting is the executor's: whole-block formulas charged on
   the driving thread, never accumulated from per-morsel execution, so
   simulated-clock charges cannot drift.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.columnar.block import Block
from repro.columnar.schema import DataType
from repro.engine import executor as _exec
from repro.engine.aggregates import GroupedPartial
from repro.engine.executor import BTreeProvider, TaskResult
from repro.index.smartindex import SmartIndexManager
from repro.planner.expressions import Frame
from repro.planner.physical import PhysicalPlan, ScanTask
from repro.sql.ast import Star

#: Default morsel granularity; ~64K rows keeps per-morsel numpy calls
#: well past their fixed-overhead knee while leaving enough morsels per
#: block for the pool to balance.
DEFAULT_MORSEL_ROWS = 64 * 1024

_NO_ROWS = np.empty(0, dtype=np.intp)

_pools_lock = threading.Lock()
_pools: Dict[int, ThreadPoolExecutor] = {}


def resolve_worker_threads(configured: int = 0) -> int:
    """Effective pool size: ``configured`` if positive, else ``os.cpu_count()``."""
    if configured and configured > 0:
        return int(configured)
    return os.cpu_count() or 1


def worker_pool(threads: int) -> ThreadPoolExecutor:
    """The shared morsel pool for ``threads`` workers (lazily created).

    Pools are module-level and reused across leaves and queries: leaf
    servers are simulation objects, and giving each its own OS threads
    would leak a pool per simulated node.
    """
    with _pools_lock:
        pool = _pools.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="feisu-morsel"
            )
            _pools[threads] = pool
        return pool


def merge_exact_aggregation(plan: PhysicalPlan) -> bool:
    """True when morsel-local partials merge to bit-identical finals.

    Joins and post-join filters force the single-pass tail (their
    charges and row order are whole-block notions); float ``SUM`` and
    every ``AVG`` reassociate additions across morsels.
    """
    if not plan.is_aggregate or plan.has_joins or plan.post_filter is not None:
        return False
    analyzed = plan.analyzed
    for agg in analyzed.aggregates:
        if agg.func == "COUNT":
            continue
        if agg.func not in ("SUM", "MIN", "MAX"):
            return False
        if isinstance(agg.argument, Star):
            return False
        try:
            if analyzed.type_of(agg.argument) is not DataType.INT64:
                return False
        except Exception:  # noqa: BLE001 - untyped expression: stay safe
            return False
    return True


class FusedPipeline:
    """One scan task as a morsel-parallel block pass.

    Construction plans the morsel ranges; :meth:`run` selects the
    matching rows on the driving thread (index probe, charges, predicate
    masks, SmartIndex inserts — the executor's own code), gathers them
    morsel by morsel (on the worker pool when it has more than one
    thread and more than one morsel) and finishes with either the merge
    path or the executor's single-pass tail.
    """

    def __init__(
        self,
        task: ScanTask,
        plan: PhysicalPlan,
        block: Block,
        index_manager: Optional[SmartIndexManager] = None,
        btree_provider: Optional[BTreeProvider] = None,
        now: float = 0.0,
        span=None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        layout=None,
    ):
        self.task = task
        self.plan = plan
        self.block = block
        self.index_manager = index_manager
        self.btree_provider = btree_provider
        self.now = now
        self.span = span
        self.layout = None if task.row_slice is not None else layout
        n = block.num_rows
        step = max(1, int(morsel_rows))
        self.morsels: List[Tuple[int, int]] = [
            (lo, min(lo + step, n)) for lo in range(0, n, step)
        ] or [(0, 0)]

    def _run_morsel(self, m: int, readers, rows: Optional[np.ndarray], exact: bool):
        """Gather (+ optionally aggregate) the matching rows in ``[lo, hi)``.

        Returns ``(frame_or_None, partial_or_None)``.  Reads shared
        readers and row ids, writes morsel-local temporaries only — safe
        under the worker pool without locks.
        """
        lo, hi = self.morsels[m]
        if rows is None:
            part = np.arange(lo, hi)
        else:
            a, b = np.searchsorted(rows, (lo, hi))
            part = rows[a:b]
        frame = _exec._gather(self.task, self.plan, readers, part, len(part))
        if exact:
            return None, _exec._partial_aggregate(frame, self.plan, False)
        return frame, None

    def run(
        self,
        broadcast_frames: Optional[Dict[str, Frame]] = None,
        worker_threads: int = 0,
    ) -> TaskResult:
        task, plan = self.task, self.plan
        analyzed = plan.analyzed
        t0 = time.perf_counter()
        threads = resolve_worker_threads(worker_threads)
        report, readers, rows = _exec._select_rows(
            task, plan, self.block, self.index_manager, self.btree_provider,
            self.now, self.span, self.layout,
        )
        report.fused = True
        report.workers = threads
        if readers is None:
            # Index-covered and empty: nothing to read, no morsels to run.
            frame = _exec._gather(task, plan, None, None, 0)
            report.morsel_wall_s = time.perf_counter() - t0
            return _exec._finish_task(
                frame, task, plan, broadcast_frames, report, self.layout
            )

        report.morsels = len(self.morsels)
        for c in plan.payload_columns:
            # Decode-once readers materialize here, not racing in the pool.
            readers[c].take(_NO_ROWS)
        exact = merge_exact_aggregation(plan)
        indices = range(len(self.morsels))
        if threads > 1 and len(self.morsels) > 1:
            pool = worker_pool(threads)
            outs = list(pool.map(lambda m: self._run_morsel(m, readers, rows, exact), indices))
        else:
            outs = [self._run_morsel(m, readers, rows, exact) for m in indices]
        report.rows_matched = report.rows_in_block if rows is None else len(rows)
        report.morsel_wall_s = time.perf_counter() - t0

        if exact:
            merged = GroupedPartial(
                len(analyzed.group_keys), [a.func for a in analyzed.aggregates]
            )
            for _frame, partial in outs:
                merged.merge(partial)
            if not analyzed.group_keys and not merged.groups:
                merged.state_for(())
            report.cpu_ops += 2.0 * report.rows_matched * max(
                1, len(analyzed.aggregates)
            )
            return TaskResult(task.task_id, partial=merged, report=report)

        frame = Frame.concat([f for f, _p in outs])
        return _exec._finish_task(frame, task, plan, broadcast_frames, report, self.layout)


def execute_fused_scan_task(
    task: ScanTask,
    plan: PhysicalPlan,
    block: Block,
    broadcast_frames: Optional[Dict[str, Frame]] = None,
    index_manager: Optional[SmartIndexManager] = None,
    btree_provider: Optional[BTreeProvider] = None,
    now: float = 0.0,
    span=None,
    worker_threads: int = 0,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    layout=None,
) -> TaskResult:
    """Drop-in fused replacement for
    :func:`repro.engine.executor.execute_scan_task` — same signature plus
    the pool/morsel knobs, same :class:`TaskResult` bytes and charges."""
    pipe = FusedPipeline(
        task, plan, block,
        index_manager=index_manager,
        btree_provider=btree_provider,
        now=now,
        span=span,
        morsel_rows=morsel_rows,
        layout=layout,
    )
    return pipe.run(broadcast_frames, worker_threads=worker_threads)
