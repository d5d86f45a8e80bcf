"""Task-result serialization (the §V-C spill format)."""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.engine import serialize
from repro.engine.aggregates import GroupedPartial, partial_aggregate
from repro.engine.executor import TaskExecutionReport, TaskResult
from repro.engine.serialize import deserialize_result, serialize_result
from repro.errors import ExecutionError
from repro.planner.expressions import Frame


def _report(task_id="t0"):
    return TaskExecutionReport(
        task_id=task_id,
        rows_in_block=100,
        rows_matched=40,
        io_bytes=1234,
        io_seeks=1,
        cpu_ops=500.0,
        index_full_cover=True,
        index_clause_hits=2,
        index_clause_misses=1,
        btree_clauses=0,
        scale_factor=1500.0,
    )


def test_frame_round_trip():
    s = np.empty(3, dtype=object)
    s[:] = ["a", "", "中文"]
    frame = Frame.from_columns(
        {
            "i": np.array([1, -2, 3], dtype=np.int64),
            "f": np.array([0.5, -1.5, 2.0]),
            "s": s,
            "b": np.array([True, False, True]),
        }
    )
    result = TaskResult("t0", frame=frame, report=_report())
    back = deserialize_result(serialize_result(result))
    assert back.task_id == "t0"
    assert back.frame.num_rows == 3
    for col in frame.columns:
        assert list(back.frame.column(col)) == list(frame.column(col))


def test_columnless_frame_round_trip():
    result = TaskResult("t0", frame=Frame({}, 17), report=_report())
    back = deserialize_result(serialize_result(result))
    assert back.frame.num_rows == 17 and back.frame.columns == {}


def test_partial_round_trip_all_aggregates():
    keys = [np.array(["x", "y", "x"], dtype=object)]
    vals = np.array([1.0, 2.0, 3.0])
    partial = partial_aggregate(
        keys, ["COUNT", "SUM", "AVG", "MIN", "MAX"], [None, vals, vals, vals, vals], 3
    )
    result = TaskResult("t1", partial=partial, report=_report("t1"))
    back = deserialize_result(serialize_result(result))
    assert set(back.partial.finals()) == {("x",), ("y",)}
    orig = partial.finals()[("x",)]
    copy = back.partial.finals()[("x",)]
    assert copy == pytest.approx(orig)


def test_partial_int_sum_stays_int():
    partial = partial_aggregate(
        [], ["SUM"], [np.array([1, 2, 3], dtype=np.int64)], 3
    )
    result = TaskResult("t2", partial=partial, report=_report("t2"))
    back = deserialize_result(serialize_result(result))
    value = back.partial.finals()[()][0]
    assert value == 6 and isinstance(value, int)


def test_restored_partials_merge_with_live_ones():
    a = partial_aggregate([np.array([1, 2])], ["COUNT"], [None], 2)
    b = partial_aggregate([np.array([2, 2])], ["COUNT"], [None], 2)
    restored = deserialize_result(
        serialize_result(TaskResult("t", partial=b, report=_report()))
    ).partial
    a = a.merge(restored)
    assert a.finals()[(2,)][0] == 3


def test_report_survives():
    frame = Frame.from_columns({"x": np.array([1])})
    back = deserialize_result(serialize_result(TaskResult("t9", frame=frame, report=_report("t9"))))
    assert back.report.scale_factor == 1500.0
    assert back.report.index_full_cover
    assert back.report.io_bytes == 1234


def test_report_round_trips_every_init_field():
    # A distinct non-default value per field, derived from the class.
    values = {}
    for i, f in enumerate(dataclasses.fields(TaskExecutionReport)):
        if not f.init:
            continue
        kind = type(f.default) if f.default is not dataclasses.MISSING else str
        values[f.name] = {bool: True, int: 7 + i, float: 0.5 + i, str: f"t{i}"}[kind]
    report = TaskExecutionReport(**values).finish()
    frame = Frame.from_columns({"x": np.array([1])})
    back = deserialize_result(serialize_result(TaskResult("t", frame=frame, report=report))).report
    for name, value in values.items():
        got = getattr(back, name)
        assert got == value and type(got) is type(value), name
    assert dataclasses.asdict(back) == dataclasses.asdict(report)


def test_empty_payload_rejected():
    with pytest.raises(ExecutionError):
        serialize_result(TaskResult("t", report=_report()))


def test_unknown_tag_rejected():
    frame = Frame.from_columns({"x": np.array([1])})
    payload = bytearray(serialize_result(TaskResult("t", frame=frame, report=_report())))
    payload[0] = 0x7F
    with pytest.raises(ExecutionError, match="tag"):
        deserialize_result(bytes(payload))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-(2**40), 2**40), max_size=60),
    st.lists(st.text(max_size=12), max_size=60),
)
def test_property_frame_round_trip(ints, strs):
    n = min(len(ints), len(strs))
    s = np.empty(n, dtype=object)
    for i in range(n):
        s[i] = strs[i]
    frame = Frame.from_columns({"i": np.array(ints[:n], dtype=np.int64), "s": s})
    back = deserialize_result(
        serialize_result(TaskResult("t", frame=frame, report=_report()))
    )
    assert list(back.frame.column("i")) == ints[:n]
    assert list(back.frame.column("s")) == strs[:n]


# -- spilled partials merge exactly like live ones ---------------------------

_FUNCS = ["COUNT", "SUM", "AVG", "MIN", "MAX"]
_DTYPES = {"int": np.int64, "float": np.float64, "str": object, "bool": np.bool_}
_KEYS = {
    # Wide ints are ranked; a narrow span is its own group id.
    "int": st.integers(-(2**62), 2**62) | st.integers(-3, 3),
    "float": st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1.5, 2.0**60]),
    "str": st.sampled_from(["", "a", "b", "中文"]),
    "bool": st.booleans(),
}
_VALUES = {
    "int": st.integers(-(2**56), 2**56),
    "float": st.sampled_from([float("nan"), float("inf"), -0.0, 0.25, -3.0, 1e300]),
    "str": st.text(max_size=4),
    "bool": st.booleans(),
}


def _column(kind, values):
    out = np.empty(len(values), dtype=_DTYPES[kind])
    out[:] = values
    return out


@st.composite
def _partial_inputs(draw):
    """One aggregate list over all five functions and two tasks' inputs
    to it: ``(funcs, value kinds, [(keys, arrays, rows)] * 2)``."""
    key_kinds = draw(st.lists(st.sampled_from(sorted(_KEYS)), max_size=2))
    funcs = draw(st.lists(st.sampled_from(_FUNCS), min_size=1, max_size=6))
    value_kinds = [
        draw(st.sampled_from(["int", "float"] if f in ("SUM", "AVG") else sorted(_VALUES)))
        for f in funcs
    ]
    tasks = []
    for _ in range(2):
        n = draw(st.integers(0, 24))
        keys = [_column(k, draw(st.lists(_KEYS[k], min_size=n, max_size=n))) for k in key_kinds]
        arrays = [
            None if f == "COUNT" else _column(v, draw(st.lists(_VALUES[v], min_size=n, max_size=n)))
            for f, v in zip(funcs, value_kinds)
        ]
        tasks.append((keys, arrays, n))
    note(f"keys={key_kinds} funcs={funcs} values={value_kinds}")
    return funcs, value_kinds, tasks


def _spilled(partial):
    result = TaskResult("t", partial=partial, report=_report())
    return deserialize_result(serialize_result(result)).partial


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _assert_same_partial(got, want):
    got_finals, want_finals = got.finals(), want.finals()
    assert len(got_finals) == len(want_finals)
    assert got.rows_scanned == want.rows_scanned
    got_keys = {key: key for key in got_finals}
    for key, finals in want_finals.items():
        # A NaN key component is the one shared NaN, so lookup is exact.
        assert all(map(_same, got_keys[key], key))
        for func, g, w in zip(want.agg_funcs, got_finals[key], finals):
            assert _same(g, w), (key, func, g, w)


@settings(max_examples=150, deadline=None)
@given(_partial_inputs())
def test_property_restored_partial_merges_like_a_live_one(inputs):
    funcs, value_kinds, (left, right) = inputs

    def live(task):
        keys, arrays, n = task
        return partial_aggregate(keys, funcs, arrays, n)

    want = live(left).merge(live(right))
    into_live = live(left).merge(_spilled(live(right)))
    _assert_same_partial(into_live, want)
    into_restored = _spilled(live(left)).merge(live(right))
    _assert_same_partial(into_restored, want)
    for finals in into_live.finals().values():
        for f, v, final in zip(funcs, value_kinds, finals):
            if f == "SUM" and v == "int" and final is not None:
                assert type(final) is int


# -- the codec knows no layout ------------------------------------------------


def test_codec_names_no_state_slot_or_report_field():
    # A partial travels as its list of columns, whatever the functions.
    tree = ast.parse(pathlib.Path(serialize.__file__).read_text(encoding="utf-8"))
    slots = {*GroupedPartial.__slots__, "COUNT", "SUM", "AVG", "MIN", "MAX"}
    report_fields = {f.name for f in dataclasses.fields(TaskExecutionReport)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert node.value not in slots | report_fields, node.value


def test_partial_round_trip_is_bit_exact():
    """Signed zeros and NaN survive the spill: the dictionary encoding a
    frame may take would fold ``-0.0`` into ``0.0``."""
    values = np.array([-0.0, 0.0, float("nan"), -0.0, 0.0] * 8)
    keys = np.arange(len(values), dtype=np.int64)
    partial = partial_aggregate([keys], ["MIN", "COUNT"], [values, None], len(values))
    back = _spilled(partial)
    assert np.signbit(back.states[0]).tolist() == np.signbit(values).tolist()
    assert np.isnan(back.states[0]).tolist() == np.isnan(values).tolist()
    assert back.finals().keys() == partial.finals().keys()
    assert _spilled(partial_aggregate([keys], ["COUNT"], [None], 0)).finals() == {}
    assert _spilled(partial_aggregate([], ["SUM"], [values[:0]], 0)).finals() == {(): [None]}
