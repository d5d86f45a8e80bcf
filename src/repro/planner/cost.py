"""Cost model backing the master's cost-based planning (§III-B).

Cost estimates feed three decisions:

* the scheduler's placement choice (local disk read vs. remote transfer);
* backup-task timeouts (a task overdue by ``BACKUP_FACTOR`` × its
  estimate gets a speculative copy, §III-C);
* the planner's block pruning payoff accounting.

Units are simulated seconds, matching the DES clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.planner.cnf import ConjunctiveForm
from repro.planner.physical import ScanTask
from repro.sim.resources import CPU_OPS_PER_SEC, SATA_BANDWIDTH_BPS, SATA_SEEK_S
from repro.sql.ast import BinaryOperator

#: Ops charged per row per atomic comparison during a scan filter.
OPS_PER_COMPARISON = 1.0
#: CONTAINS is a substring search — charged heavier, see §VI-B workload.
OPS_PER_CONTAINS = 20.0
#: Ops per row for decoding one column chunk.
OPS_PER_DECODE = 0.5
#: In-memory SmartIndex application cost per row (bitvector AND/NOT).
OPS_PER_INDEX_ROW = 0.03125  # one 64-bit word op covers 64 rows, ~2 ops/word


@dataclass(frozen=True)
class CostModel:
    """Tunable rates; defaults mirror the §VI-A hardware table."""

    disk_bandwidth_bps: float = SATA_BANDWIDTH_BPS
    disk_seek_s: float = SATA_SEEK_S
    cpu_ops_per_sec: float = CPU_OPS_PER_SEC

    def predicate_ops_per_row(self, cnf: ConjunctiveForm) -> float:
        """Filter ops per row; the rates are constants, so it is summed
        once per form (placement prices every task of a plan with it)."""
        ops = cnf._ops_per_row  # noqa: SLF001 - the memo slot is this module's
        if ops is None:
            ops = 0.0
            for clause in cnf.clauses:
                for atom in clause.atoms:
                    if atom.op is BinaryOperator.CONTAINS:
                        ops += OPS_PER_CONTAINS
                    else:
                        ops += OPS_PER_COMPARISON
                ops += 2.0 * len(clause.residuals)  # opaque exprs: rough charge
            cnf._ops_per_row = ops  # noqa: SLF001
        return ops

    def scan_io_seconds(
        self,
        task: ScanTask,
        bandwidth_factor: float = 1.0,
        nbytes: Optional[float] = None,
    ) -> float:
        """``nbytes`` lets a caller supply the (memoized) modeled read
        size; None computes it from the block, the original behaviour."""
        if nbytes is None:
            nbytes = task.block.bytes_for(task.columns) * task.block.scale_factor
        bw = self.disk_bandwidth_bps * bandwidth_factor
        return self.disk_seek_s + nbytes / bw

    def scan_cpu_seconds(self, task: ScanTask, cnf: ConjunctiveForm) -> float:
        rows = task.block.modeled_rows
        decode_ops = OPS_PER_DECODE * rows * len(task.columns)
        filter_ops = self.predicate_ops_per_row(cnf) * rows
        return (decode_ops + filter_ops) / self.cpu_ops_per_sec

    def index_cpu_seconds(self, task: ScanTask, num_clauses: int) -> float:
        """Cost of answering the filter purely from SmartIndex vectors."""
        rows = task.block.modeled_rows
        return (OPS_PER_INDEX_ROW * rows * max(1, num_clauses)) / self.cpu_ops_per_sec

    def task_seconds(
        self,
        task: ScanTask,
        cnf: ConjunctiveForm,
        index_covered: bool = False,
        bandwidth_factor: float = 1.0,
        extra_latency_s: float = 0.0,
        nbytes: Optional[float] = None,
    ) -> float:
        """End-to-end single-task estimate.

        With full SmartIndex cover, both the block scan I/O and the
        predicate evaluation are skipped (§IV-C-3): only the index pass
        and the (much smaller) projection read of matching rows remain.
        ``nbytes`` optionally supplies a memoized modeled read size (see
        :meth:`scan_io_seconds`).
        """
        if index_covered:
            return self.index_cpu_seconds(task, max(1, len(cnf.clauses)))
        return (
            extra_latency_s
            + self.scan_io_seconds(task, bandwidth_factor, nbytes=nbytes)
            + self.scan_cpu_seconds(task, cnf)
        )
