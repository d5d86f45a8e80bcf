"""Schema and type system for Feisu's columnar data model.

Feisu tables in Baidu "usually contain hundreds of attributes but only a
small subset of them are actually queried" (§III-A); the schema object is
therefore designed for cheap column lookup and projection.  Nested (json)
data is flattened into dotted column names by
:mod:`repro.columnar.json_flatten` before it reaches a schema.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    BOOL = "bool"

    @property
    def numpy_dtype(self) -> np.dtype:
        if self is DataType.INT64:
            return np.dtype(np.int64)
        if self is DataType.FLOAT64:
            return np.dtype(np.float64)
        if self is DataType.BOOL:
            return np.dtype(np.bool_)
        return np.dtype(object)  # strings ride as object arrays

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64)

    @classmethod
    def from_value(cls, value: object) -> "DataType":
        """Infer the logical type of a scalar Python value."""
        if isinstance(value, bool):
            return cls.BOOL
        if isinstance(value, (int, np.integer)):
            return cls.INT64
        if isinstance(value, (float, np.floating)):
            return cls.FLOAT64
        if isinstance(value, str):
            return cls.STRING
        raise AnalysisError(f"unsupported value type {type(value).__name__}")


def common_type(a: DataType, b: DataType) -> DataType:
    """Numeric widening used by the expression type checker."""
    if a == b:
        return a
    numeric = {DataType.INT64, DataType.FLOAT64}
    if a in numeric and b in numeric:
        return DataType.FLOAT64
    raise AnalysisError(f"no common type for {a.value} and {b.value}")


@dataclass(frozen=True)
class Field:
    """One column: a name, a logical type, and nullability."""

    name: str
    dtype: DataType
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise AnalysisError("field name must be non-empty")


class Schema:
    """An ordered collection of uniquely named fields."""

    def __init__(self, fields: Sequence[Field]):
        self._fields: Tuple[Field, ...] = tuple(fields)
        self._by_name: Dict[str, int] = {}
        for i, f in enumerate(self._fields):
            if f.name in self._by_name:
                raise AnalysisError(f"duplicate field name {f.name!r}")
            self._by_name[f.name] = i

    @classmethod
    def of(cls, **named_types: DataType) -> "Schema":
        """Shorthand: ``Schema.of(a=DataType.INT64, b=DataType.STRING)``."""
        return cls([Field(n, t) for n, t in named_types.items()])

    @property
    def fields(self) -> Tuple[Field, ...]:
        return self._fields

    @property
    def names(self) -> List[str]:
        return [f.name for f in self._fields]

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def field(self, name: str) -> Field:
        try:
            return self._fields[self._by_name[name]]
        except KeyError:
            raise AnalysisError(f"unknown column {name!r}") from None

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise AnalysisError(f"unknown column {name!r}") from None

    def select(self, names: Iterable[str]) -> "Schema":
        """Projection: a new schema with only ``names``, in given order."""
        return Schema([self.field(n) for n in names])

    def is_subset_of(self, other: "Schema") -> bool:
        """True when every field here exists identically in ``other``.

        Used to validate the paper's T3-attributes ⊆ T1/T2-attributes
        relationship when planning cross-table scans (§VI-B-2).
        """
        return all(
            f.name in other and other.field(f.name).dtype == f.dtype for f in self._fields
        )

    def to_dict(self) -> Dict[str, str]:
        return {f.name: f.dtype.value for f in self._fields}

    @classmethod
    def from_dict(cls, spec: Dict[str, str]) -> "Schema":
        return cls([Field(n, DataType(t)) for n, t in spec.items()])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{f.name}:{f.dtype.value}" for f in self._fields[:6])
        more = "" if len(self._fields) <= 6 else f", ... ({len(self._fields)} fields)"
        return f"Schema({inner}{more})"


def empty_columns(schema: Schema) -> Dict[str, np.ndarray]:
    """Zero-row column dict matching ``schema`` (used for empty results)."""
    return {f.name: np.empty(0, dtype=f.dtype.numpy_dtype) for f in schema}


def coerce_array(values: Sequence[object], dtype: DataType) -> np.ndarray:
    """Build a column array of logical type ``dtype`` from Python values."""
    if dtype is DataType.STRING:
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    return np.asarray(values, dtype=dtype.numpy_dtype)
