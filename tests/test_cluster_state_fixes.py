"""Regression tests for the cluster-state bugfix sweep.

Covers four long-standing defects:

* shared mutable ``CostModel()`` / ``LeafConfig()`` defaults leaking
  ablation tweaks between independent clusters;
* silent zombie resurrection in :meth:`ClusterManager.heartbeat`
  (re-admission is now explicit: counter + scheduler notification);
* the unbounded :class:`PrimaryBackup` op log (now truncated at
  ``sync_shadow`` checkpoints and not kept at all without a shadow; a
  new shadow starts from a copy of the live primary);
* the straggler watch (in the task supervisor) launching a backup
  against a stale deadline right after a failed attempt's retry started
  (double-backup).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import FeisuCluster, FeisuConfig
from repro.cluster.failover import PrimaryBackup
from repro.cluster.ledger import JobLedger
from repro.cluster.master import Master
from repro.cluster.membership import ClusterManager
from repro.cluster.messages import WorkerLoad
from repro.cluster.node import LeafServer
from repro.cluster.scheduler import JobScheduler
from repro.sim.events import Simulator
from repro.sim.netmodel import NodeAddress


# -- satellite 1: shared mutable defaults -----------------------------------


class TestPerInstanceDefaults:
    def test_schedulers_do_not_share_a_cost_model(self):
        a = FeisuCluster(FeisuConfig(nodes_per_rack=2))
        b = FeisuCluster(FeisuConfig(nodes_per_rack=2))
        assert a.scheduler.cost_model is not b.scheduler.cost_model
        # Swapping one cluster's model (ablations do) must not touch the
        # other's.
        from repro.planner.cost import CostModel

        a.scheduler.cost_model = CostModel(disk_bandwidth_bps=1.0)
        assert b.scheduler.cost_model.disk_bandwidth_bps != 1.0

    def test_leaves_do_not_share_config_or_cost_model(self):
        cluster = FeisuCluster(FeisuConfig(nodes_per_rack=2))
        leaves = cluster.leaves
        assert len(leaves) >= 2
        assert leaves[0].config is not leaves[1].config
        assert leaves[0].cost_model is not leaves[1].cost_model
        leaves[0].config.index_ttl_s = 1.0
        assert leaves[1].config.index_ttl_s == type(leaves[1].config)().index_ttl_s

    def test_fresh_construction_uses_fresh_defaults(self):
        # The historical bug: `def __init__(..., cost_model=CostModel())`
        # evaluated once at def time.  Two bare constructions must not
        # alias even without a cluster facade in the middle.
        assert (
            JobScheduler.__init__.__defaults__ is None
            or all(
                d is None or d.__class__.__name__ != "CostModel"
                for d in JobScheduler.__init__.__defaults__
            )
        ), "JobScheduler must not bake a CostModel instance into its defaults"
        assert (
            LeafServer.__init__.__defaults__ is None
            or all(
                d is None or d.__class__.__name__ not in ("CostModel", "LeafConfig")
                for d in LeafServer.__init__.__defaults__
            )
        ), "LeafServer must not bake CostModel/LeafConfig instances into its defaults"


# -- satellite 2: explicit zombie re-admission ------------------------------


class TestHeartbeatReadmission:
    def _dead_worker(self):
        sim = Simulator()
        cm = ClusterManager(sim)
        cm.register("leaf-1", NodeAddress(0, 0, 0))
        sim.run(until=100.0)  # well past HEARTBEAT_PERIOD_S * MISSED_LIMIT
        dead = cm.sweep()
        assert dead == ["leaf-1"]
        assert not cm.is_alive("leaf-1")
        return sim, cm

    def test_late_heartbeat_still_revives(self):
        sim, cm = self._dead_worker()
        cm.heartbeat("leaf-1", WorkerLoad())
        assert cm.is_alive("leaf-1")

    def test_readmission_is_counted_and_announced(self):
        sim, cm = self._dead_worker()
        seen = []
        cm.on_readmit(seen.append)
        cm.heartbeat("leaf-1", WorkerLoad())
        assert cm.readmissions == 1
        assert cm._workers["leaf-1"].readmitted == 1  # noqa: SLF001
        assert seen == ["leaf-1"]
        # A live worker's heartbeat is not a re-admission.
        cm.heartbeat("leaf-1", WorkerLoad())
        assert cm.readmissions == 1
        assert seen == ["leaf-1"]

    def test_scheduler_learns_about_readmitted_workers(self):
        cluster = FeisuCluster(FeisuConfig(nodes_per_rack=2))
        wid = cluster.leaves[0].worker_id
        record = cluster.cluster_manager._workers[wid]  # noqa: SLF001
        record.alive = False  # as sweep() would after missed heartbeats
        cluster.cluster_manager.heartbeat(wid, WorkerLoad())
        assert cluster.scheduler.readmitted_workers == [wid]
        assert cluster.cluster_manager.is_alive(wid)


# -- satellite 3: bounded PrimaryBackup op log ------------------------------


def _set_op(state: dict, key: int, value: int) -> None:
    state[key] = value


class TestBoundedOpLog:
    def test_log_truncates_at_checkpoints(self):
        pb = PrimaryBackup(Simulator(), dict, checkpoint_interval_ops=10)
        for i in range(95):
            pb.apply(_set_op, i, i)
        assert pb.log_length < 10, "log must hold only the post-checkpoint tail"
        assert pb.log_length == 95 % 10
        assert pb.state == {i: i for i in range(95)}

    def test_without_interval_explicit_sync_truncates(self):
        pb = PrimaryBackup(Simulator(), dict)
        for i in range(50):
            pb.apply(_set_op, i, i)
        assert pb.log_length == 50
        pb.sync_shadow()
        assert pb.log_length == 0
        assert pb.monitoring_state() == pb.state

    def test_failover_after_truncation_loses_nothing(self):
        pb = PrimaryBackup(Simulator(), dict, checkpoint_interval_ops=10)
        for i in range(25):
            pb.apply(_set_op, i, i)
        pb.fail_primary()
        assert pb.state == {i: i for i in range(25)}

    def test_new_shadow_bootstraps_from_checkpoint_plus_tail(self):
        pb = PrimaryBackup(Simulator(), dict, checkpoint_interval_ops=10)
        for i in range(25):
            pb.apply(_set_op, i, i)
        pb.fail_primary()
        pb.start_new_shadow()
        # No checkpoint copy and no log survive the failover: the fresh
        # shadow is one copy of the live primary (the promoted shadow,
        # which replayed the 5-op tail past the op-20 checkpoint), i.e.
        # the state checkpoint-plus-tail used to rebuild.  It must be a
        # copy — ops stream to it from here on, they are not shared.
        assert pb.monitoring_state() == {i: i for i in range(25)}
        assert pb.monitoring_state() is not pb.state
        assert pb.log_length == 0 and pb.shadow_lag_ops == 0
        for i in range(25, 40):
            pb.apply(_set_op, i, i)
        pb.fail_primary()
        assert pb.state == {i: i for i in range(40)}

    def test_no_log_is_retained_while_there_is_no_shadow(self):
        # The shadow is the log's only reader; between fail_primary() and
        # start_new_shadow() the log used to grow by one entry per op
        # with checkpoint_interval_ops bounding nothing.
        pb = PrimaryBackup(Simulator(), dict, checkpoint_interval_ops=10)
        for i in range(25):
            pb.apply(_set_op, i, i)
        pb.fail_primary()
        assert pb.log_length == 0
        for i in range(25, 10_025):
            pb.apply(_set_op, i, i)
        assert pb.log_length == 0
        pb.start_new_shadow()
        assert pb.monitoring_state() == pb.state
        for i in range(10_025, 10_030):
            pb.apply(_set_op, i, i)
        pb.fail_primary()
        assert pb.state == {i: i for i in range(10_030)}

    def test_job_ledger_log_stays_bounded(self):
        ledger = JobLedger(Simulator(), checkpoint_interval_ops=8)
        for i in range(100):
            ledger.record_submitted(f"job-{i}", "u", "SELECT 1", float(i))
            ledger.record_finished(f"job-{i}", "succeeded", float(i) + 0.5)
        assert ledger.log_length < 8
        assert len(ledger.entries()) == 100
        ledger.fail_primary()
        assert len(ledger.entries()) == 100


# -- satellite 4: straggler watchdog rebase ---------------------------------


class _WatchdogHarness:
    """Drives ``Master._task_supervisor``'s straggler watch with the
    supervisor's bookkeeping: the harness stands in for both the master
    (``sim``, ``scheduler.backup_deadline``) and the task's attempts
    (``done``, ``attempts``, ``armed``, ``launch``).  An attempt is the
    supervisor's ``(process, placement, launched_at)`` record, with a plain
    event for the process and only the placement's ``estimate_s``."""

    def __init__(self, first_estimate: float = 1.0):
        self.sim = Simulator()
        self.done = self.sim.event(name="task-done")
        self.attempts = []
        self._add_attempt(first_estimate)
        self.armed = []
        self.backups = 0
        self.job = SimpleNamespace(options=SimpleNamespace(enable_backup=True))
        self.scheduler = SimpleNamespace(backup_deadline=self.deadline_for)
        self._launched = False

    def deadline_for(self, estimate_s: float) -> float:
        return max(2.0, 3.0 * estimate_s)

    def launch(self, first=None) -> bool:
        # The supervisor's first launch is attempt 0, made above.
        if self._launched:
            self.launch_backup()
        self._launched = True
        return True

    def _add_attempt(self, estimate: float) -> None:
        self.attempts.append((
            self.sim.event(name=f"attempt{len(self.attempts)}"),
            SimpleNamespace(estimate_s=estimate),
            self.sim.now,
        ))

    def attempt(self, index: int):
        return self.attempts[index][0]

    def launched_at(self, index: int) -> float:
        return self.attempts[index][2]

    def launch_backup(self) -> None:
        self.backups += 1
        self._add_attempt(self.attempts[0][1].estimate_s)

    def retry_on_failure(self, attempt_index: int, estimate: float) -> None:
        """Mimic the supervisor's completion callback: when an attempt
        fails, the retry is launched from a callback at the same
        simulated instant (behind the watchdog in the callback queue)."""

        def do_retry():
            if not self.done.triggered:
                self._add_attempt(estimate)

        # Two queue hops (event callback, then the launch itself), so at
        # a shared timestamp the retry can land *behind* the watchdog's
        # wake-up — the ordering the zero-delay re-check exists for.
        self.attempt(attempt_index).add_callback(
            lambda _ev: self.sim.schedule(0.0, do_retry)
        )

    def start(self):
        return self.sim.process(Master._task_supervisor(self, self), name="watchdog")


class TestStragglerWatchdogRebase:
    def test_genuine_straggler_gets_exactly_one_backup(self):
        h = _WatchdogHarness(first_estimate=1.0)
        proc = h.start()
        # First attempt completes only at t=10, well past its t=3 deadline.
        h.sim.schedule(10.0, lambda: (h.attempt(0).succeed(), h.done.succeed()))
        h.sim.run_until_complete(proc)
        assert h.backups == 1
        assert h.launched_at(1) == pytest.approx(3.0)

    def test_fresh_retry_is_not_immediately_backed_up(self):
        # The bug: attempt 0 (launched t=0, deadline t=3) fails at t=2.9
        # and its retry starts immediately.  The old watchdog still fired
        # at t=3 against attempt 0's deadline, double-covering a 0.1s-old
        # retry.  The fixed watchdog rebases onto the retry's own clock.
        h = _WatchdogHarness(first_estimate=1.0)
        h.retry_on_failure(0, estimate=1.0)
        proc = h.start()
        h.sim.schedule(2.9, h.attempt(0).succeed)
        # The retry (launched ~t=2.9) completes healthily at t=4.0.
        h.sim.schedule(4.0, lambda: (h.attempt(1).succeed(), h.done.succeed()))
        h.sim.run_until_complete(proc)
        assert h.backups == 0, "retry was fresh; no backup deadline had passed"

    def test_slow_retry_still_gets_a_backup_on_its_own_deadline(self):
        h = _WatchdogHarness(first_estimate=1.0)
        h.retry_on_failure(0, estimate=1.0)
        proc = h.start()
        h.sim.schedule(2.9, h.attempt(0).succeed)
        # Retry launched at t=2.9 with deadline t=5.9; it straggles.
        h.sim.schedule(20.0, lambda: (h.attempt(1).succeed(), h.done.succeed()))
        h.sim.run_until_complete(proc)
        assert h.backups == 1
        assert h.launched_at(2) == pytest.approx(2.9 + 3.0)

    def test_failure_at_deadline_instant_rebases_not_doubles(self):
        # Failure lands exactly on the watchdog's wake-up timestamp; the
        # retry callback sits behind the watchdog in the queue.  One
        # zero-delay yield lets it appear, then the watchdog rebases.
        h = _WatchdogHarness(first_estimate=1.0)
        h.retry_on_failure(0, estimate=1.0)
        proc = h.start()
        h.sim.schedule(3.0, h.attempt(0).succeed)
        h.sim.schedule(4.0, lambda: (h.attempt(1).succeed(), h.done.succeed()))
        h.sim.run_until_complete(proc)
        assert h.backups == 0

    def test_failed_attempt_with_no_retry_stops_cleanly(self):
        # Task gave up (max attempts): the watchdog must neither launch a
        # backup nor spin on zero-delay timeouts forever.
        h = _WatchdogHarness(first_estimate=1.0)
        proc = h.start()

        def fail_then_resolve():
            h.attempt(0).succeed()
            h.sim.schedule(0.0, h.done.succeed)

        h.sim.schedule(3.0, fail_then_resolve)
        h.sim.run_until_complete(proc)
        assert h.backups == 0
        assert h.sim.now == pytest.approx(3.0)

    def test_done_before_deadline_never_launches(self):
        h = _WatchdogHarness(first_estimate=1.0)
        proc = h.start()
        h.sim.schedule(1.0, lambda: (h.attempt(0).succeed(), h.done.succeed()))
        h.sim.run_until_complete(proc)
        assert h.backups == 0
