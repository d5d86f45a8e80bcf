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
columnar block (frames) or a partial's columns: the length and JSON of
its header (``num_keys``, ``agg_funcs``, ``rows_scanned``, the group
count and each column's byte length), then its key columns, its counts
and its state columns, each in the plain encoding (raw little-endian
values, strings as offsets + UTF-8), so every float comes back bit for
bit, ``-0.0`` and NaN included.  The codec owns only that framing: the
report travels as its dataclass ``init`` fields and a partial as its
list of columns, so a field or a state column added to either needs no
edit here.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields

import numpy as np

from repro.columnar.block import Block
from repro.columnar.encoding import PlainEncoding
from repro.columnar.schema import DataType, Schema
from repro.engine.aggregates import GroupedPartial, _to_python
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


_PLAIN = PlainEncoding()


def _partial_to_bytes(partial: GroupedPartial) -> bytes:
    # An empty partial holds no column.
    columns = (*partial.keys, partial.counts, *partial.states) if partial.num_groups else ()
    chunks = [_PLAIN.encode(col) for col in columns]
    head = json.dumps(
        [
            partial.num_keys,
            partial.agg_funcs,
            partial.rows_scanned,
            partial.num_groups,
            [len(chunk) for chunk in chunks],
        ]
    ).encode()
    return b"".join([struct.pack("<I", len(head)), head, *chunks])


def _partial_from_bytes(payload: bytes) -> GroupedPartial:
    (hlen,) = struct.unpack_from("<I", payload)
    num_keys, agg_funcs, rows_scanned, num_groups, lengths = json.loads(payload[4 : 4 + hlen])
    partial = GroupedPartial(num_keys, agg_funcs, rows_scanned=rows_scanned)
    pos = 4 + hlen
    columns = []
    for length in lengths:
        columns.append(_PLAIN.decode(payload[pos : pos + length], num_groups))
        pos += length
    if columns:
        partial.keys = columns[:num_keys]
        partial.counts = columns[num_keys]
        partial.states = columns[num_keys + 1 :]
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
