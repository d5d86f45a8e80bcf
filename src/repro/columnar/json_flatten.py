"""Nested-record flattening.

"Feisu also supports nested data format such as json, which will be
flattened into columns when the data are processed" (§III-A).  This
module turns lists of nested dicts into flat dotted-name columns and
infers the resulting schema:

* nested objects flatten with ``.`` separators (``{"a": {"b": 1}}`` →
  column ``a.b``);
* lists of scalars are joined into one string column (log payloads);
* missing keys become type-appropriate defaults, since the engine's
  columns are dense.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.columnar.schema import DataType, Field, Schema, coerce_array
from repro.errors import AnalysisError

_DEFAULTS = {
    DataType.INT64: 0,
    DataType.FLOAT64: 0.0,
    DataType.STRING: "",
    DataType.BOOL: False,
}
#: Python type of a json scalar -> logical type; ``bool`` comes before
#: ``int`` because it subclasses it.  The same callables are the casts.
_SCALAR_TYPES = {
    bool: DataType.BOOL,
    int: DataType.INT64,
    float: DataType.FLOAT64,
    str: DataType.STRING,
}
_CASTS = {dtype: cast for cast, dtype in _SCALAR_TYPES.items()}
_SCALARS = tuple(_SCALAR_TYPES)


def _scatter(
    record: Mapping[str, Any], prefix: str, row: int, nrows: int, columns: Dict[str, list]
) -> None:
    """Write one record's leaves to ``columns[dotted name][row]``.

    A column is created, ``None``-filled for ``nrows`` rows, the first
    time one of its values is met, so ``columns`` ends up in
    first-appearance order; a later value for the same name and row (a
    dotted flat key colliding with a nested one) overwrites the earlier.
    Exact types are dispatched first; ``isinstance`` is the fallback that
    subclasses and other ``Mapping``s take.
    """
    for key, value in record.items():
        name = key if not prefix and type(key) is str else f"{prefix}{key}"
        kind = type(value)
        if kind is str or kind is int or kind is float or kind is bool or value is None:
            pass
        elif kind is dict or (
            kind is not list and kind is not tuple and isinstance(value, Mapping)
        ):
            _scatter(value, f"{name}.", row, nrows, columns)
            continue
        elif kind is list or kind is tuple or isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))
        elif not isinstance(value, _SCALARS):
            raise AnalysisError(
                f"unsupported json value of type {type(value).__name__} at {name!r}"
            )
        try:
            columns[name][row] = value
        except KeyError:
            column = columns[name] = [None] * nrows
            column[row] = value


def flatten_record(record: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    """Flatten one nested record into a dotted-key dict of scalars."""
    columns: Dict[str, list] = {}
    _scatter(record, prefix, 0, 1, columns)
    return {name: column[0] for name, column in columns.items()}


def _infer_type(kinds: Set[type]) -> DataType:
    """Logical type of a column holding values of exactly these Python
    types (``NoneType`` left out)."""
    seen = set()
    for kind in kinds:
        dtype = _SCALAR_TYPES.get(kind)
        if dtype is None:  # a subclass: ask in ``_SCALAR_TYPES`` order
            dtype = next(d for base, d in _SCALAR_TYPES.items() if issubclass(kind, base))
        seen.add(dtype)
    if not seen:
        return DataType.STRING
    if seen == {DataType.INT64, DataType.FLOAT64}:
        return DataType.FLOAT64
    if len(seen) > 1:
        return DataType.STRING  # mixed types degrade to text, like log fields
    return seen.pop()


def flatten_records(
    records: Sequence[Mapping[str, Any]]
) -> Tuple[Schema, Dict[str, np.ndarray]]:
    """Flatten many records into (schema, column arrays).

    Column order is first-appearance order, which keeps generated tables
    stable for a fixed input ordering.  A column's type is inferred from
    the set of Python types it holds (int + float widen to FLOAT64, any
    other mix degrades to STRING, nothing but ``None`` is STRING); a
    missing key or a ``None`` becomes the type's default, since the
    engine's columns are dense.
    """
    nrows = len(records)
    raw: Dict[str, list] = {}
    for row, record in enumerate(records):
        _scatter(record, "", row, nrows, raw)
    schema_fields = []
    columns: Dict[str, np.ndarray] = {}
    for name, values in raw.items():
        kinds = set(map(type, values))
        has_none = type(None) in kinds
        kinds.discard(type(None))
        dtype = _infer_type(kinds)
        if has_none:
            default = _DEFAULTS[dtype]
            values = [default if v is None else v for v in values]
        if dtype is DataType.STRING and kinds - {str}:
            values = list(map(str, values))
        schema_fields.append(Field(name, dtype))
        columns[name] = coerce_array(values, dtype)
    return Schema(schema_fields), columns


def align_columns(
    schema: Schema, columns: Dict[str, np.ndarray], nrows: int
) -> Dict[str, np.ndarray]:
    """Fit one flattened batch of ``nrows`` rows onto a table ``schema``.

    A field the batch lacks is filled with its type's default, a column
    whose inferred type differs from the table's is cast value by value
    (``str`` / ``float`` / ``int`` / ``bool``), and columns the table
    does not know are dropped.
    """
    aligned: Dict[str, np.ndarray] = {}
    for f in schema:
        column = columns.get(f.name)
        if column is None:
            column = coerce_array([_DEFAULTS[f.dtype]] * nrows, f.dtype)
        elif column.dtype != f.dtype.numpy_dtype:
            try:
                column = coerce_array(list(map(_CASTS[f.dtype], column.tolist())), f.dtype)
            except (ValueError, OverflowError) as exc:
                raise AnalysisError(
                    f"cannot store column {f.name!r} of this batch as {f.dtype.value}: {exc}"
                ) from None
        aligned[f.name] = column
    return aligned
