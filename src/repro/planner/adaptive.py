"""Adaptive mid-query re-optimization (S53, ROADMAP item 2).

Feisu's static planner freezes every estimate before execution; this
module re-plans mid-flight, in the spirit of Shark's partial-DAG
execution.  The master splits a job into two *waves* with a checkpoint
between them:

1. **Pilot wave** — a thin row slice of every scan task (a
   :attr:`~repro.planner.physical.ScanTask.row_slice` covering
   ``PILOT_FRACTION`` of each block).  Slices charge I/O and CPU
   proportionally, so the pilot is genuinely cheap on the simulated
   clock and the two waves together cost exactly one full scan.
2. **Checkpoint** — the :class:`ReoptController` compares observed
   selectivity (from the pilot's task reports) and group-key skew (from
   its partial-aggregate histograms) against the planner's estimates,
   and times each pilot slice against the cost model.
3. **Remainder wave** — the complement slices, re-planned: hot or
   straggling work is split into sub-slices across idle leaves
   (``skew-split``), a large selectivity misestimate with idle capacity
   repartitions the remainder the same way (``repartition``), placement
   may be narrowed to leaves that already hold the broadcast frames
   (``colocate-broadcast``), cost estimates are rescaled so backup
   deadlines track reality (``revise-selectivity``), and blocks the
   pilot already covered whole are skipped outright.

Everything here is pure planning — no simulator access, no I/O — so the
controller is unit-testable without a cluster.  The master retains every
pilot result across the checkpoint; on a worker crash only the lost
partitions of the current wave re-run (partition-level recovery).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.planner.physical import PhysicalPlan, ScanTask
from repro.planner.selectivity import estimate_selectivity


#: Fraction of each block the pilot wave scans.
PILOT_FRACTION = 0.125
#: Re-plan when max(est, obs) / min(est, obs) selectivity ≥ this.
ERROR_RATIO = 2.0
#: Skew-split when the hottest group holds ≥ this share of pilot rows.
SKEW_THRESHOLD = 0.3
#: ... or when the slowest pilot slice ran ≥ this multiple of the
#: median (a straggling/slow leaf looks exactly like data skew to
#: the remainder wave: split its work so others absorb it).
STRAGGLER_RATIO = 3.0
#: Colocate remainder tasks with broadcast-holding leaves when the
#: dimension ship is at least this fraction of a task's own read.
COLOCATE_RATIO = 0.25
#: Clamp on the cost-estimate rescale derived from pilot timings.
ESTIMATE_SCALE_BOUNDS = (0.25, 4.0)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for the adaptive re-optimizer (``FeisuConfig.adaptive``)."""

    #: Floor on pilot rows per block (tiny blocks: pilot = whole block,
    #: and the remainder wave skips them — honest stage skipping).
    pilot_min_rows: int = 256
    #: Max sub-slices one remainder partition splits into.
    split_factor: int = 4
    #: Never create sub-slices smaller than this many rows.
    min_split_rows: int = 512
    #: Jobs with fewer tasks than this run the frozen path (the
    #: checkpoint would cost more than it could save).
    min_tasks: int = 1


@dataclass(frozen=True)
class ReoptDecision:
    """One checkpoint's outcome — the re-plan, or the decision not to."""

    at_s: float
    estimated_selectivity: float
    observed_selectivity: float
    error_ratio: float
    #: Subset of {"revise-selectivity", "skew-split", "repartition",
    #: "colocate-broadcast", "skip-covered"}; empty = keep the frozen
    #: remainder plan.
    actions: Tuple[str, ...] = ()
    split_factor: int = 1
    estimate_scale: float = 1.0
    prefer_workers: Tuple[str, ...] = ()
    hot_group: Optional[str] = None
    hot_share: float = 0.0
    duration_skew: float = 0.0
    skipped_tasks: int = 0

    @property
    def replanned(self) -> bool:
        return bool(self.actions)


class ReoptController:
    """Plans the pilot wave, judges its actuals, re-plans the remainder."""

    def __init__(self, config: AdaptiveConfig, plan: PhysicalPlan, cost_model=None):
        self.config = config
        self.plan = plan
        self.base_table = plan.analyzed.tables[plan.analyzed.base_binding]
        #: The scheduler's cost model (so ablation-tweaked rates carry
        #: into the checkpoint's observed-vs-modeled comparison).
        self._cost_model = cost_model
        #: Every checkpoint's outcome, in order (the decision log).
        self.decisions: List[ReoptDecision] = []

    # -- wave construction ------------------------------------------------

    def pilot_rows(self, task: ScanTask) -> int:
        """Rows the pilot slice of ``task`` covers (whole block if small)."""
        n = task.block.num_rows
        want = max(self.config.pilot_min_rows, int(n * PILOT_FRACTION))
        return min(n, want)

    def pilot_wave(self, tasks: Sequence[ScanTask]) -> List[ScanTask]:
        """One thin leading slice per task; ids get a ``.p`` suffix."""
        return [
            replace(t, task_id=f"{t.task_id}.p", row_slice=(0, self.pilot_rows(t)))
            for t in tasks
        ]

    def remainder_wave(
        self, tasks: Sequence[ScanTask], decision: ReoptDecision
    ) -> List[ScanTask]:
        """Complement slices under ``decision``: split when skewed, skip
        blocks the pilot already covered whole."""
        out: List[ScanTask] = []
        splitting = {"skew-split", "repartition"} & set(decision.actions)
        split = decision.split_factor if splitting else 1
        for t in tasks:
            p = self.pilot_rows(t)
            n = t.block.num_rows
            if p >= n:
                continue  # pilot answered this block entirely
            span = n - p
            k = max(1, min(split, span // max(1, self.config.min_split_rows)))
            bounds = [p + (span * i) // k for i in range(k + 1)]
            for i in range(k):
                lo, hi = bounds[i], bounds[i + 1]
                if hi > lo:
                    out.append(replace(t, task_id=f"{t.task_id}.s{i}", row_slice=(lo, hi)))
        return out

    # -- the checkpoint ---------------------------------------------------

    def decide(
        self,
        now: float,
        tasks: Sequence[ScanTask],
        pilot_results: Sequence,
        pilot_durations: Dict[str, float],
        live_workers: int,
        broadcast_holders: Sequence[str] = (),
        broadcast_bytes: int = 0,
    ) -> ReoptDecision:
        """Compare pilot actuals against estimates; emit the re-plan.

        ``pilot_results`` are the pilot wave's :class:`TaskResult`\\ s,
        ``pilot_durations`` maps pilot task id → attempt seconds (absent
        for results reused from another job's in-flight tasks).
        """
        estimated = estimate_selectivity(self.plan.scan_cnf, self.base_table)
        rows_in = sum(r.report.rows_in_block for r in pilot_results)
        rows_matched = sum(r.report.rows_matched for r in pilot_results)
        observed = rows_matched / rows_in if rows_in else estimated
        lo, hi = sorted((max(estimated, 1e-6), max(observed, 1e-6)))
        err = hi / lo

        actions: List[str] = []
        if self.plan.scan_cnf.clauses and err >= ERROR_RATIO:
            actions.append("revise-selectivity")

        hot_group, hot_share = self._hot_group(pilot_results)
        duration_skew = self._duration_skew(pilot_durations)
        remaining = [t for t in tasks if self.pilot_rows(t) < t.block.num_rows]
        skipped = len(tasks) - len(remaining)
        if skipped:
            actions.append("skip-covered")

        split = 1
        skewed = hot_share >= SKEW_THRESHOLD or duration_skew >= STRAGGLER_RATIO
        # A big selectivity misestimate with idle capacity is its own
        # reason to repartition: the frozen plan sized one task per block
        # on wrong numbers, and spare leaves can absorb the sub-slices.
        idle_capacity = bool(remaining) and live_workers > len(remaining)
        if (skewed or ("revise-selectivity" in actions and idle_capacity)) and remaining:
            split = min(
                self.config.split_factor, max(2, live_workers // max(1, len(remaining)))
            )
            if split > 1:
                actions.append("skew-split" if skewed else "repartition")
            else:
                split = 1

        prefer: Tuple[str, ...] = ()
        if (
            self.plan.has_joins
            and broadcast_holders
            and split == 1
            and remaining
        ):
            mean_read = sum(
                t.block.bytes_for(t.columns) for t in remaining
            ) / len(remaining)
            enough_holders = 2 * len(broadcast_holders) >= len(remaining)
            if enough_holders and broadcast_bytes >= COLOCATE_RATIO * mean_read:
                prefer = tuple(sorted(broadcast_holders))
                actions.append("colocate-broadcast")

        decision = ReoptDecision(
            at_s=now,
            estimated_selectivity=estimated,
            observed_selectivity=observed,
            error_ratio=err,
            actions=tuple(actions),
            split_factor=split,
            estimate_scale=self._estimate_scale(tasks, pilot_durations),
            prefer_workers=prefer,
            hot_group=hot_group,
            hot_share=hot_share,
            duration_skew=duration_skew,
            skipped_tasks=skipped,
        )
        self.decisions.append(decision)
        return decision

    # -- observation helpers ----------------------------------------------

    @staticmethod
    def _hot_group(pilot_results: Sequence) -> Tuple[Optional[str], float]:
        """Hottest group-key share across the pilot's partial aggregates.

        Uses any per-group row counter the partials carry (COUNT or AVG
        states); non-aggregate queries report no skew this way and rely
        on the duration signal instead.
        """
        counts: Dict[str, int] = {}
        for r in pilot_results:
            partial = getattr(r, "partial", None)
            if partial is None:
                continue
            for key, states in partial.groups.items():
                n = next((s.n for s in states if hasattr(s, "n")), None)
                if n is None:
                    return None, 0.0
                label = str(key)
                counts[label] = counts.get(label, 0) + int(n)
        total = sum(counts.values())
        if total <= 0 or len(counts) < 2:
            return None, 0.0
        hot = max(counts, key=counts.get)
        return hot, counts[hot] / total

    @staticmethod
    def _duration_skew(pilot_durations: Dict[str, float]) -> float:
        """max / median of observed pilot slice durations (≥3 samples)."""
        durations = sorted(pilot_durations.values())
        if len(durations) < 3:
            return 0.0
        median = durations[len(durations) // 2]
        if median <= 0.0:
            return 0.0
        return durations[-1] / median

    def _estimate_scale(
        self, tasks: Sequence[ScanTask], pilot_durations: Dict[str, float]
    ) -> float:
        """Rescale for remainder-wave cost estimates, from pilot timings.

        The scheduler's per-task estimate prices a *full block*; the
        remainder runs complement slices, so the scale folds in the mean
        complement fraction times the observed-vs-modeled timing ratio
        (pilot duration ÷ pilot fraction recovers an observed full-task
        cost) — backup deadlines then track what a sub-task actually
        costs instead of an ~8× too-generous whole-block figure.
        """
        if not tasks:
            return 1.0
        fractions = []
        observed_ratio = 1.0
        pilots = sorted(pilot_durations.values())
        for t in tasks:
            p = self.pilot_rows(t)
            fractions.append((t.block.num_rows - p) / max(1, t.block.num_rows))
        mean_fraction = sum(fractions) / len(fractions)
        if mean_fraction <= 0.0:
            return 1.0
        if pilots:
            pilot_fracs = [self.pilot_rows(t) / max(1, t.block.num_rows) for t in tasks]
            mean_pilot_fraction = sum(pilot_fracs) / len(pilot_fracs)
            median_duration = pilots[len(pilots) // 2]
            if median_duration > 0.0 and mean_pilot_fraction > 0.0:
                observed_full_s = median_duration / mean_pilot_fraction
                modeled_full_s = self._modeled_median_seconds(tasks)
                if modeled_full_s > 0.0:
                    observed_ratio = observed_full_s / modeled_full_s
        lo, hi = ESTIMATE_SCALE_BOUNDS
        return min(hi, max(lo, mean_fraction * observed_ratio))

    def _modeled_median_seconds(self, tasks: Sequence[ScanTask]) -> float:
        """Median full-block cost-model estimate across ``tasks``."""
        from repro.planner.cost import CostModel

        if self._cost_model is None:
            self._cost_model = CostModel()
        secs = sorted(
            self._cost_model.task_seconds(t, self.plan.scan_cnf) for t in tasks
        )
        return secs[len(secs) // 2] if secs else 0.0
