"""The write path: flatten ≡ its reference, and no Python per row.

``_reference_flatten_records`` is a verbatim copy of the row-at-a-time
implementation that ``flatten_records`` replaced (one dict per record, a
``flat.get`` list, an inference pass and a coercion call per value).  It
stays here as the oracle: the column-at-a-time rewrite must agree with it
on schema, column order, dtypes, values, element types of object columns
and on which path an unsupported value is reported at.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from collections.abc import Mapping as AbcMapping
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FeisuCluster, FeisuConfig
from repro.columnar.block import ColumnChunk
from repro.columnar.encoding import _CODECS, ColumnFacts, DictionaryEncoding, choose_encoding
from repro.columnar.json_flatten import align_columns, flatten_record, flatten_records
from repro.columnar.schema import DataType, Field, Schema, coerce_array
from repro.errors import AnalysisError
from repro.workload.loggen import LogIngestor, generate_log_records

_DEFAULTS = {
    DataType.INT64: 0,
    DataType.FLOAT64: 0.0,
    DataType.STRING: "",
    DataType.BOOL: False,
}


# -- the implementation flatten_records replaced, verbatim ------------------


def _reference_flatten_record(record: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_reference_flatten_record(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ",".join(str(v) for v in value)
        elif value is None:
            flat[name] = None
        elif isinstance(value, (bool, int, float, str)):
            flat[name] = value
        else:
            raise AnalysisError(
                f"unsupported json value of type {type(value).__name__} at {name!r}"
            )
    return flat


def _reference_infer_type(values: Iterable[Any]) -> DataType:
    seen: set = set()
    for v in values:
        if v is None:
            continue
        seen.add(DataType.from_value(v))
    if not seen:
        return DataType.STRING
    if seen == {DataType.INT64, DataType.FLOAT64}:
        return DataType.FLOAT64
    if len(seen) > 1:
        return DataType.STRING
    return seen.pop()


def _reference_coerce_scalar(value: Any, dtype: DataType) -> Any:
    if dtype is DataType.STRING:
        return str(value)
    if dtype is DataType.FLOAT64:
        return float(value)
    if dtype is DataType.INT64:
        return int(value)
    return bool(value)


def _reference_flatten_records(records):
    flats = [_reference_flatten_record(r) for r in records]
    names: List[str] = []
    seen = set()
    for flat in flats:
        for key in flat:
            if key not in seen:
                seen.add(key)
                names.append(key)
    schema_fields = []
    columns: Dict[str, np.ndarray] = {}
    for name in names:
        raw = [flat.get(name) for flat in flats]
        dtype = _reference_infer_type(raw)
        default = _DEFAULTS[dtype]
        cleaned = [default if v is None else _reference_coerce_scalar(v, dtype) for v in raw]
        schema_fields.append(Field(name, dtype))
        columns[name] = coerce_array(cleaned, dtype)
    return Schema(schema_fields), columns


# -- record strategies --------------------------------------------------------


class _MyInt(int):
    pass


class _MyStr(str):
    pass


class _MyDict(dict):
    pass


class _MyList(list):
    pass


class _ReadOnly(AbcMapping):
    """A ``Mapping`` that is not a dict."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


_ints = st.integers(-(2**40), 2**40)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _ints.map(_MyInt),
    st.floats(allow_nan=False, width=64),
    st.floats(allow_nan=False).map(np.float64),
    st.text(max_size=4),
    st.text(max_size=4).map(_MyStr),
)
_unsupported = st.sampled_from([b"bytes", {1, 2}, np.int64(3), 1 + 2j])
_lists = st.lists(st.one_of(st.none(), st.booleans(), _ints, st.text(max_size=3)), max_size=3)
#: Few distinct keys, so records collide, nest under each other's scalars
#: and a dotted flat key meets the nested path of the same name.
_keys = st.sampled_from(["a", "b", "c", "a.b", "a.c", "b.a", 1, 2.5, None, _MyStr("a")])


def _mappings(children):
    plain = st.dictionaries(_keys, children, max_size=4)
    return st.one_of(
        plain,
        plain.map(_MyDict),
        plain.map(OrderedDict),
        plain.map(_ReadOnly),
        plain.map(MappingProxyType),
    )


_values = st.recursive(
    st.one_of(_scalars, _lists, _lists.map(tuple), _lists.map(_MyList)),
    lambda children: _mappings(children),
    max_leaves=6,
)
_records = st.lists(_mappings(_values), max_size=6)
_records_with_errors = st.lists(
    _mappings(st.one_of(_values, _unsupported, _mappings(st.one_of(_values, _unsupported)))),
    min_size=1,
    max_size=5,
)


_shape_keys = st.sampled_from(["a", "b", "c", "a.b", "b.a", "a.b.c", 1, True, _MyStr("c")])
_mapping_types = st.sampled_from([dict, dict, dict, _MyDict, OrderedDict, _ReadOnly, MappingProxyType])
_leaves = st.one_of(_scalars, _lists, _lists.map(tuple), _lists.map(_MyList))


@st.composite
def _shaped_batches(draw, leaves=_leaves):
    """Batches whose records share key shapes, so the flattener's groups
    form and then split: every record takes one of a few top-level key
    sequences, and each of its values is drawn per record — a leaf, or an
    object (of any mapping type) taking one of a few nested key sequences,
    itself holding leaves or objects.  The same key is an object in some
    rows and a scalar in others, a dotted flat key (``a.b``) meets the
    nested path of the same name, and ``1`` / ``True`` collide as keys."""
    top = draw(st.lists(st.lists(_shape_keys, unique=True, max_size=4), min_size=1, max_size=3))
    inner = draw(st.lists(st.lists(_shape_keys, unique=True, max_size=3), min_size=1, max_size=3))

    def value(depth):
        if depth < 2 and draw(st.integers(0, 2)) == 0:
            return mapping(inner, depth + 1)
        return draw(leaves)

    def mapping(shapes, depth):
        keys = draw(st.sampled_from(shapes))
        return draw(_mapping_types)({k: value(depth) for k in keys})

    return [mapping(top, 0) for _ in range(draw(st.integers(0, 12)))]


@settings(max_examples=300, deadline=None)
@given(_shaped_batches())
def test_flatten_records_equals_reference_on_shaped_batches(records):
    _assert_same_table(flatten_records(records), _reference_flatten_records(records))


@settings(max_examples=150, deadline=None)
@given(_shaped_batches(st.one_of(_leaves, _leaves, _unsupported)))
def test_shaped_batches_report_the_same_unsupported_path(records):
    try:
        want = _reference_flatten_records(records)
    except AnalysisError as exc:
        with pytest.raises(AnalysisError) as caught:
            flatten_records(records)
        assert str(caught.value) == str(exc)
    else:
        _assert_same_table(flatten_records(records), want)


def test_a_nested_name_first_seen_after_another_shapes_first_row():
    """Rows 0 and 2 share a shape, row 1 has another; ``a`` is a scalar in
    row 0 and an object in row 2, so ``a.b`` first appears after ``y``."""
    records = [{"x": 1, "a": 5}, {"y": 2}, {"x": 3, "a": {"b": 4}}]
    schema, columns = flatten_records(records)
    assert schema.names == ["x", "a", "y", "a.b"]
    _assert_same_table((schema, columns), _reference_flatten_records(records))
    assert columns["a.b"].tolist() == [0, 0, 4]


def _assert_same_table(got, want):
    got_schema, got_columns = got
    want_schema, want_columns = want
    assert got_schema == want_schema
    assert got_schema.names == want_schema.names
    assert list(got_columns) == list(want_columns)
    for name, expected in want_columns.items():
        actual = got_columns[name]
        assert actual.dtype == expected.dtype, name
        assert actual.shape == expected.shape, name
        assert actual.tolist() == expected.tolist(), name
        if expected.dtype == object:
            assert [type(v) for v in actual] == [type(v) for v in expected], name


@settings(max_examples=300, deadline=None)
@given(_records)
def test_flatten_records_equals_reference(records):
    _assert_same_table(flatten_records(records), _reference_flatten_records(records))


@settings(max_examples=150, deadline=None)
@given(_records_with_errors)
def test_flatten_records_reports_the_same_unsupported_path(records):
    try:
        want = _reference_flatten_records(records)
    except AnalysisError as exc:
        with pytest.raises(AnalysisError) as caught:
            flatten_records(records)
        assert str(caught.value) == str(exc)
    else:
        _assert_same_table(flatten_records(records), want)


@settings(max_examples=150, deadline=None)
@given(_mappings(_values), st.sampled_from(["", "p.", "x"]))
def test_flatten_record_equals_reference(record, prefix):
    got = flatten_record(record, prefix)
    want = _reference_flatten_record(record, prefix)
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


def test_flatten_records_edge_shapes():
    for records in (
        [],
        [{}],
        [{}, {"a": 1}],
        [{"a.b": 1, "x": 0, "a": {"b": 2}}],  # the nested value wins, in the flat key's place
        [{"a": 1}, {"a": {"b": 2}}],  # a scalar in one record, an object in the next
        [{"big": 2**70}, {"big": 1.5}],  # past int64, but the column is FLOAT64
        [{"n": float("nan")}, {"n": None}],
    ):
        got, want = flatten_records(records), _reference_flatten_records(records)
        assert got[0] == want[0]
        for name in want[1]:
            np.testing.assert_array_equal(got[1][name], want[1][name])
    with pytest.raises(OverflowError):
        flatten_records([{"big": 2**70}])
    # A json line that is not an object (``[0]`` would read as a key 0).
    for records in ([[0]], [{"a": 1}, ["a"]], [5]):
        with pytest.raises(AnalysisError, match="a record must be an object"):
            flatten_records(records)


# -- schema alignment -----------------------------------------------------------


def test_align_columns_fills_casts_and_drops():
    table = Schema.of(
        s=DataType.STRING, f=DataType.FLOAT64, i=DataType.INT64, b=DataType.BOOL,
        gone=DataType.STRING, zero=DataType.INT64,
    )
    _schema, columns = flatten_records(
        [{"s": 7, "f": 2, "i": 3.9, "b": "", "new": 1}, {"s": 8, "f": 3, "i": -1.5, "b": "x"}]
    )
    aligned = align_columns(table, columns, 2)
    assert list(aligned) == table.names
    assert aligned["s"].tolist() == ["7", "8"] and aligned["s"].dtype == object
    assert aligned["f"].tolist() == [2.0, 3.0] and aligned["f"].dtype == np.float64
    assert aligned["i"].tolist() == [3, -1] and aligned["i"].dtype == np.int64
    assert aligned["b"].tolist() == [False, True] and aligned["b"].dtype == np.bool_
    assert aligned["gone"].tolist() == ["", ""] and aligned["gone"].dtype == object
    assert aligned["zero"].tolist() == [0, 0] and aligned["zero"].dtype == np.int64


def test_align_columns_names_the_column_it_cannot_cast():
    _schema, columns = flatten_records([{"n": "seven"}])
    with pytest.raises(AnalysisError, match="'n'.*int64"):
        align_columns(Schema.of(n=DataType.INT64), columns, 1)


# -- no per-row Python -------------------------------------------------------------


def _count_calls(fn, *args):
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_ingest_runs_no_python_per_value():
    """Guard: ``LogIngestor.ingest`` (flatten → ``Block.from_arrays`` →
    ``to_bytes`` → write) makes no Python-level call per added record:
    records are grouped by shape and moved a column at a time (it was 5
    per record with one walk per record, and 161 when every value went
    through ``isinstance``, ``flat.get``, an inference pass and a
    coercion call)."""
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=2))
    ingestor = LogIngestor(cluster)
    node = cluster.nodes[0]
    ingestor.ingest(node, generate_log_records(50, 0, 0, seed=3))  # table registration
    small = _count_calls(ingestor.ingest, node, generate_log_records(400, 0, 1, seed=3))
    large = _count_calls(ingestor.ingest, node, generate_log_records(4000, 0, 2, seed=3))
    per_record = (large - small) / 3600
    assert per_record <= 0.1, (small, large, per_record)


def test_dictionary_string_chunk_runs_no_python_per_row():
    """Guard: writing a 50 000-row, 64-distinct string column is per
    distinct value — ``dict.fromkeys`` and one ``np.fromiter`` — where it
    was one loop iteration, a ``str`` and a Bloom digest's worth of calls
    per row (51 487)."""
    rng = np.random.default_rng(3)
    words = np.array([f"{w}{j:02d}" for w in ("alpha", "bravo", "delta", "gamma")
                      for j in range(16)], dtype=object)
    column = words[rng.integers(0, len(words), 50_000)]
    chunks = []
    calls = _count_calls(lambda: chunks.append(ColumnChunk.from_array("s", DataType.STRING, column)))
    (chunk,) = chunks
    assert chunk.encoding_tag == DictionaryEncoding.tag
    assert chunk.stats.distinct_estimate == 64
    assert (chunk.decode() == column).all()
    assert calls < 2_000, calls


# -- one pass of column facts ------------------------------------------------------


@pytest.mark.parametrize(
    "array, dtype",
    [
        (np.arange(0, 9000, 3, dtype=np.int64), DataType.INT64),
        (np.random.default_rng(1).integers(0, 7, 9000), DataType.INT64),
        (np.random.default_rng(1).random(500), DataType.FLOAT64),
        (np.array([0.0, -0.0, np.nan, -np.nan, 1.5] * 40), DataType.FLOAT64),
        (np.repeat(np.array(["x", "y\x00", "", "ü"], dtype=object), 50), DataType.STRING),
        (np.array([f"v{i % 5000}" for i in range(6000)], dtype=object), DataType.STRING),
    ],
)
def test_facts_change_nothing_a_codec_writes(array, dtype):
    """Shared facts are an economy, not an input: every codec writes the
    same bytes with them as without, and the chooser picks the same one."""
    facts = ColumnFacts(array)
    assert choose_encoding(array, dtype, facts) is choose_encoding(array, dtype)
    for codec in _CODECS.values():
        if codec.name == "bitpacked" or (codec.name == "delta" and dtype is not DataType.INT64):
            continue
        assert codec.encode(array, facts) == codec.encode(array), codec.name
        np.testing.assert_array_equal(codec.decode(codec.encode(array, facts), len(array)), array)
