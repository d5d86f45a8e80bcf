"""Vectorized execution engine: operators, aggregates, task executor."""

from repro.engine.aggregates import GroupedPartial, partial_aggregate
from repro.engine.executor import (
    QueryResult,
    TaskExecutionReport,
    TaskResult,
    execute_scan_task,
    finalize,
)
from repro.engine.serialize import deserialize_result, serialize_result
from repro.engine.operators import (
    apply_filter,
    cross_join,
    hash_join,
    join,
    limit_frame,
    prefix_columns,
    sort_frame,
)

__all__ = [
    "GroupedPartial",
    "QueryResult",
    "TaskExecutionReport",
    "TaskResult",
    "apply_filter",
    "cross_join",
    "execute_scan_task",
    "finalize",
    "hash_join",
    "join",
    "limit_frame",
    "partial_aggregate",
    "prefix_columns",
    "serialize_result",
    "deserialize_result",
    "sort_frame",
]
