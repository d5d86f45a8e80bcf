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

Wire format: 1 tag byte, then either a columnar block (frames) or a
length-prefixed structure of group keys and aggregate states (partials).
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Tuple

import numpy as np

from repro.columnar.block import Block
from repro.columnar.schema import DataType, Schema, coerce_array
from repro.engine.aggregates import (
    AvgState,
    CountState,
    GroupedPartial,
    MaxState,
    MinState,
    SumState,
    make_state,
)
from repro.engine.executor import TaskExecutionReport, TaskResult
from repro.errors import ExecutionError
from repro.planner.expressions import Frame

_TAG_FRAME = 0x01
_TAG_PARTIAL = 0x02


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


_STATE_PACKERS = {
    "COUNT": lambda s: {"n": s.n},
    "SUM": lambda s: {"total": float(s.total), "seen": s.seen, "int": isinstance(s.total, (int, np.integer))},
    "AVG": lambda s: {"total": s.total, "n": s.n},
    "MIN": lambda s: {"value": _json_value(s.value)},
    "MAX": lambda s: {"value": _json_value(s.value)},
}


def _json_value(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


def _restore_state(func: str, data: Dict):
    state = make_state(func)
    if func == "COUNT":
        state.n = data["n"]
    elif func == "SUM":
        state.seen = data["seen"]
        state.total = int(data["total"]) if data["int"] else data["total"]
    elif func == "AVG":
        state.total = data["total"]
        state.n = data["n"]
    else:  # MIN / MAX
        state.value = data["value"]
    return state


def _partial_to_bytes(partial: GroupedPartial) -> bytes:
    doc = {
        "num_keys": partial.num_keys,
        "agg_funcs": partial.agg_funcs,
        "rows_scanned": partial.rows_scanned,
        "groups": [
            {
                "key": [_json_value(k) for k in key],
                "states": [
                    _STATE_PACKERS[f](s) for f, s in zip(partial.agg_funcs, states)
                ],
            }
            for key, states in partial.groups.items()
        ],
    }
    return json.dumps(doc).encode()


def _partial_from_bytes(payload: bytes) -> GroupedPartial:
    doc = json.loads(payload.decode())
    partial = GroupedPartial(doc["num_keys"], list(doc["agg_funcs"]))
    partial.rows_scanned = doc["rows_scanned"]
    for group in doc["groups"]:
        key = tuple(group["key"])
        partial.groups[key] = [
            _restore_state(f, data) for f, data in zip(partial.agg_funcs, group["states"])
        ]
    return partial


def serialize_result(result: TaskResult) -> bytes:
    """Serialize a task result for spilling to global storage."""
    report = json.dumps(
        {
            "task_id": result.report.task_id,
            "rows_in_block": result.report.rows_in_block,
            "rows_matched": result.report.rows_matched,
            "io_bytes": result.report.io_bytes,
            "io_seeks": result.report.io_seeks,
            "cpu_ops": result.report.cpu_ops,
            "index_full_cover": result.report.index_full_cover,
            "index_clause_hits": result.report.index_clause_hits,
            "index_clause_misses": result.report.index_clause_misses,
            "btree_clauses": result.report.btree_clauses,
            "scale_factor": result.report.scale_factor,
            "index_subsumption_hits": result.report.index_subsumption_hits,
            "index_residual_clauses": result.report.index_residual_clauses,
            "index_residual_fraction": result.report.index_residual_fraction,
        }
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
    rdoc = json.loads(payload[5 : 5 + rlen].decode())
    report = TaskExecutionReport(
        task_id=rdoc["task_id"],
        rows_in_block=rdoc["rows_in_block"],
        rows_matched=rdoc["rows_matched"],
        io_bytes=rdoc["io_bytes"],
        io_seeks=rdoc["io_seeks"],
        cpu_ops=rdoc["cpu_ops"],
        index_full_cover=rdoc["index_full_cover"],
        index_clause_hits=rdoc["index_clause_hits"],
        index_clause_misses=rdoc["index_clause_misses"],
        btree_clauses=rdoc["btree_clauses"],
        scale_factor=rdoc["scale_factor"],
        # .get(): spills written before the semantic index lack these.
        index_subsumption_hits=rdoc.get("index_subsumption_hits", 0),
        index_residual_clauses=rdoc.get("index_residual_clauses", 0),
        index_residual_fraction=rdoc.get("index_residual_fraction", 0.0),
    ).finish()
    body = payload[5 + rlen :]
    if tag == _TAG_FRAME:
        return TaskResult(report.task_id, frame=_frame_from_bytes(body), report=report)
    if tag == _TAG_PARTIAL:
        return TaskResult(report.task_id, partial=_partial_from_bytes(body), report=report)
    raise ExecutionError(f"unknown spill tag {tag}")
