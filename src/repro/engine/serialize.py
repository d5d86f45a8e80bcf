"""Task-result serialization for the §V-C write data flow.

"Although queries on Feisu are read-only, Feisu still needs to write
data (e.g., temporary data and intermediate results) during query
execution.  These written data are transmitted in a bypass channel to a
global distributed storage ... If the data are too big, it will be
dumped to global storage and only the location information is passed."

Large task results are therefore *spilled*: the leaf serializes the
result with this module, writes the bytes to the global filesystem over
the WRITE traffic class, and ships only the path upstream; the master
fetches and deserializes on the READ flow.

Wire format: 1 tag byte, the report's length and its JSON, then either a
columnar block (frames) or the JSON of group keys and aggregate states
(partials).  The codec owns only that framing: the report travels as its
dataclass ``init`` fields and each aggregate state as the values of its
class's ``__slots__``, so a field added to either needs no edit here,
only a value JSON can hold.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields

import numpy as np

from repro.columnar.block import Block
from repro.columnar.schema import DataType, Schema
from repro.engine.aggregates import (
    AggregateState,
    GroupedPartial,
    _canonical_key_values,
    _to_python,
    make_state,
)
from repro.engine.executor import TaskExecutionReport, TaskResult
from repro.errors import ExecutionError
from repro.planner.expressions import Frame

_TAG_FRAME = 0x01
_TAG_PARTIAL = 0x02

#: The report fields its constructor takes; the rest ``finish`` derives.
_REPORT_FIELDS = [f.name for f in fields(TaskExecutionReport) if f.init]


def _infer_dtype(array: np.ndarray) -> DataType:
    if array.dtype == object:
        return DataType.STRING
    if array.dtype == np.bool_:
        return DataType.BOOL
    if np.issubdtype(array.dtype, np.integer):
        return DataType.INT64
    return DataType.FLOAT64


def _frame_to_bytes(frame: Frame) -> bytes:
    schema = Schema.from_dict(
        {name: _infer_dtype(col).value for name, col in frame.columns.items()}
    )
    columns = {
        name: col if _infer_dtype(col) is DataType.STRING else col.astype(
            schema.field(name).dtype.numpy_dtype
        )
        for name, col in frame.columns.items()
    }
    if not columns:
        # A frame with no columns still carries a row count.
        return json.dumps({"empty_rows": frame.num_rows}).encode()
    return Block.from_arrays("spill", schema, columns).to_bytes()


def _frame_from_bytes(payload: bytes) -> Frame:
    if payload[:1] == b"{":
        return Frame({}, json.loads(payload.decode())["empty_rows"])
    block = Block.from_bytes(payload)
    return Frame({name: block.column(name) for name in block.schema.names}, block.num_rows)


def _pack_state(state: AggregateState) -> list:
    return [_to_python(getattr(state, slot)) for slot in type(state).__slots__]


def _unpack_state(func: str, values: list) -> AggregateState:
    state = make_state(func)
    for slot, value in zip(type(state).__slots__, values):
        setattr(state, slot, value)
    return state


def _partial_to_bytes(partial: GroupedPartial) -> bytes:
    groups = [
        [[_to_python(k) for k in key], [_pack_state(s) for s in states]]
        for key, states in partial.groups.items()
    ]
    doc = [partial.num_keys, partial.agg_funcs, partial.rows_scanned, groups]
    return json.dumps(doc).encode()


def _partial_from_bytes(payload: bytes) -> GroupedPartial:
    num_keys, agg_funcs, rows_scanned, groups = json.loads(payload.decode())
    partial = GroupedPartial(num_keys, agg_funcs, rows_scanned=rows_scanned)
    for key, states in groups:
        # A NaN key must be the shared ``_NAN_KEY`` to merge with live ones.
        partial.groups[tuple(_canonical_key_values(key))] = [
            _unpack_state(f, values) for f, values in zip(agg_funcs, states)
        ]
    return partial


def serialize_result(result: TaskResult) -> bytes:
    """Serialize a task result for spilling to global storage."""
    report = json.dumps(
        {name: _to_python(getattr(result.report, name)) for name in _REPORT_FIELDS}
    ).encode()
    if result.frame is not None:
        tag, body = _TAG_FRAME, _frame_to_bytes(result.frame)
    elif result.partial is not None:
        tag, body = _TAG_PARTIAL, _partial_to_bytes(result.partial)
    else:
        raise ExecutionError("cannot serialize a task result with no payload")
    return bytes([tag]) + struct.pack("<I", len(report)) + report + body


def deserialize_result(payload: bytes) -> TaskResult:
    """Inverse of :func:`serialize_result`."""
    tag = payload[0]
    (rlen,) = struct.unpack_from("<I", payload, 1)
    report = TaskExecutionReport(**json.loads(payload[5 : 5 + rlen].decode())).finish()
    body = payload[5 + rlen :]
    if tag == _TAG_FRAME:
        return TaskResult(report.task_id, frame=_frame_from_bytes(body), report=report)
    if tag == _TAG_PARTIAL:
        return TaskResult(report.task_id, partial=_partial_from_bytes(body), report=report)
    raise ExecutionError(f"unknown spill tag {tag}")
