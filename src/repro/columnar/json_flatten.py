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

A batch is flattened shape by shape: records with the same keys in the
same order form one group, and a group's values move one column at a
time (``itemgetter`` + ``zip``), nested columns recursing by the same
rule.  Python work is per distinct shape and per column; only a column
that mixes objects, sequences and scalars is sorted value by value.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

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
_NONE = type(None)
#: Exact types a column stores as they are.
_STORED = frozenset((*_SCALARS, _NONE))
_STR = frozenset((str,))
_SEQUENCES = frozenset((list, tuple))

#: ``(dotted name, row ids, values, set of value types)``; an unsupported
#: value is ``(None, row id, message, None)``.
_Piece = Tuple[Any, Any, Any, Any]


def _joined(values: Sequence[Sequence[Any]]) -> List[str]:
    """Each list / tuple in ``values`` as its items' ``str`` joined by ``,``."""
    if set(map(type, chain.from_iterable(values))) <= _STR:
        return list(map(",".join, values))
    return list(map(",".join, map(partial(map, str), values)))


def _shapes(records: Sequence[Mapping], rows: np.ndarray, prefix: str) -> list:
    """``(keys, names, records, rows)`` per distinct key sequence, the
    rows of each group ascending."""
    shapes = list(map(tuple, records))
    if shapes.count(shapes[0]) == len(shapes):
        distinct: Dict[tuple, None] = {shapes[0]: None}
    else:
        distinct = dict.fromkeys(shapes)
    if all(type(k) is str for shape in distinct for k in shape):
        labels = [(shape, tuple([prefix + k for k in shape])) for shape in distinct]
    else:
        # Equal keys of other types can print apart (``1`` and ``True``):
        # group on the printed names as well.
        shapes = [(shape, tuple([f"{prefix}{k}" for k in shape])) for shape in shapes]
        distinct = dict.fromkeys(shapes)
        labels = list(distinct)
    if len(distinct) == 1:
        return [(*labels[0], records, rows)]
    code = dict(zip(distinct, range(len(distinct))))
    ids = np.fromiter(map(code.__getitem__, shapes), dtype=np.intp, count=len(shapes))
    order = np.argsort(ids, kind="stable")
    groups = []
    start = 0
    for label, end in zip(labels, np.cumsum(np.bincount(ids)).tolist()):
        picked = order[start:end]
        groups.append((*label, list(map(records.__getitem__, picked.tolist())), rows[picked]))
        start = end
    return groups


def _walk(
    records: Sequence[Mapping], rows: np.ndarray, prefix: str, dicts: bool, out: List[_Piece]
) -> None:
    """Append the pieces of ``records`` (at row ids ``rows``; ``dicts``:
    every record is exactly a ``dict``) to ``out``.

    The pieces holding any one row are appended in the order a walk of
    that record meets them, which is what lets a later colliding key win
    and first appearance be read off (:func:`_columns`).
    """
    for keys, names, group, group_rows in _shapes(records, rows, prefix):
        if len(keys) == 1:
            columns: Any = (list(map(itemgetter(keys[0]), group)),)
        elif not keys:
            continue
        elif dicts:  # one key order per group: the values line up
            columns = zip(*map(dict.values, group))
        else:
            columns = zip(*map(itemgetter(*keys), group))
        for name, values in zip(names, columns):
            kinds = set(map(type, values))
            if kinds <= _STORED:
                out.append((name, group_rows, values, kinds))
            elif kinds == {dict}:
                _walk(values, group_rows, name + ".", True, out)
            elif kinds <= _SEQUENCES:
                out.append((name, group_rows, _joined(values), {str}))
            else:
                _sort_values(name, values, group_rows, out)


def _sort_values(name: str, values: Sequence[Any], rows: np.ndarray, out: List[_Piece]) -> None:
    """A column mixing objects, sequences and scalars, value by value.
    Exact types are dispatched first; ``isinstance`` is the fallback that
    subclasses and other ``Mapping``s take."""
    kept: List[int] = []
    stored: List[Any] = []
    nested: List[int] = []
    objects: List[Mapping] = []
    for i, value in enumerate(values):
        kind = type(value)
        if kind in _STORED:
            pass
        elif kind is dict or (kind is not list and kind is not tuple and isinstance(value, Mapping)):
            nested.append(i)
            objects.append(value)
            continue
        elif kind is list or kind is tuple or isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))
        elif not isinstance(value, _SCALARS):
            message = f"unsupported json value of type {kind.__name__} at {name!r}"
            out.append((None, int(rows[i]), message, None))
            continue
        kept.append(i)
        stored.append(value)
    if kept:
        out.append((name, rows[kept], stored, set(map(type, stored))))
    if nested:
        _walk(objects, rows[nested], name + ".", False, out)


def _columns(records: Sequence[Mapping], prefix: str) -> Dict[str, Tuple[Sequence[Any], Set[type]]]:
    """``{dotted name: (value per record, None where absent; their types)}``
    in first-appearance order.

    Raises for the unsupported value a record-by-record walk meets first.
    """
    nrows = len(records)
    out: List[_Piece] = []
    if nrows:
        dicts = set(map(type, records)) == {dict}
        if not dicts:
            for record in records:
                if not isinstance(record, Mapping):
                    raise AnalysisError(
                        f"a record must be an object, not {type(record).__name__}"
                    )
        _walk(records, np.arange(nrows), prefix, dicts, out)
    first: Dict[str, Tuple[int, int]] = {}
    pieces: Dict[str, List[_Piece]] = {}
    error = None
    for seq, piece in enumerate(out):
        name = piece[0]
        if name is None:
            if error is None or piece[1] < error[1]:
                error = piece
            continue
        # A name first appears in its lowest row, at the earliest piece
        # holding that row (pieces holding one row are in walk order).
        mark = (int(piece[1][0]), seq)
        held = pieces.get(name)
        if held is None:
            pieces[name] = [piece]
            first[name] = mark
        else:
            held.append(piece)
            first[name] = min(first[name], mark)
    if error is not None:
        raise AnalysisError(error[2])
    columns = {}
    for name in sorted(first, key=first.__getitem__):
        held = pieces[name]
        if len(held) == 1 and len(held[0][1]) == nrows:
            columns[name] = held[0][2:]
            continue
        column = np.full(nrows, None, dtype=object)
        for _name, rows, values, _kinds in held:  # in walk order: a later key wins
            column[rows] = values
        values = column.tolist()
        columns[name] = (values, set(map(type, values)))
    return columns


def flatten_record(record: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    """Flatten one nested record into a dotted-key dict of scalars."""
    return {name: values[0] for name, (values, _kinds) in _columns([record], prefix).items()}


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
    schema_fields = []
    columns: Dict[str, np.ndarray] = {}
    for name, (values, kinds) in _columns(records, "").items():
        has_none = _NONE in kinds
        kinds = kinds - {_NONE}
        dtype = _infer_type(kinds)
        if has_none:
            default = _DEFAULTS[dtype]
            values = [default if v is None else v for v in values]
        if dtype is DataType.STRING and kinds - _STR:
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
