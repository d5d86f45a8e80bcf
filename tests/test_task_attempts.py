"""How many attempts a failing task gets.

A task that fails is retried on another leaf up to ``MAX_TASK_ATTEMPTS``
times in all, since the replica or leaf behind the failure may come back.
An integer overflow is the exception: it is the data's answer, the same
on every leaf, so the task fails on its first attempt.
"""

from __future__ import annotations

import numpy as np

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.cluster.master import MAX_TASK_ATTEMPTS, Master
from repro.cluster.node import LeafServer
from repro.errors import ExecutionError, IntegerOverflowError


def _cluster() -> FeisuCluster:
    cluster = FeisuCluster(FeisuConfig())
    cluster.load_table(
        "T",
        Schema.of(g=DataType.INT64, x=DataType.INT64),
        {
            "g": np.array([0, 0, 0, 1, 1, 1], dtype=np.int64),
            "x": np.array([2**62, 2**62, 2**62, -(2**62), 5, 7], dtype=np.int64),
        },
        block_rows=3,
    )
    return cluster


def _count_attempts(monkeypatch) -> list:
    """The task id of every attempt launched from here on."""
    launched = []
    real = Master._task_flow  # noqa: SLF001

    def counting(self, job, task, *args, **kwargs):
        launched.append(task.task_id)
        return real(self, job, task, *args, **kwargs)

    monkeypatch.setattr(Master, "_task_flow", counting)
    return launched


def test_an_overflowing_task_fails_on_its_first_attempt(monkeypatch):
    cluster = _cluster()
    launched = _count_attempts(monkeypatch)
    job = cluster.query_job("SELECT SUM(x) FROM T WHERE g = 0")
    assert isinstance(job.error, IntegerOverflowError)
    assert sorted(launched) == sorted(set(launched)) and len(launched) == job.stats.tasks_total
    assert job.stats.backups_launched == 0


def test_any_other_execution_error_is_retried(monkeypatch):
    cluster = _cluster()
    launched = _count_attempts(monkeypatch)

    def failing(self, task, plan, broadcasts, span=None):
        raise ExecutionError("replica unreadable")
        yield  # a generator, as ``run_task`` is

    monkeypatch.setattr(LeafServer, "run_task", failing)
    job = cluster.query_job("SELECT SUM(x) FROM T")
    assert job.error is not None and job.stats.tasks_failed == job.stats.tasks_total
    tasks = set(launched)
    assert len(tasks) == 2
    assert sorted(launched) == sorted([*tasks] * MAX_TASK_ATTEMPTS)
