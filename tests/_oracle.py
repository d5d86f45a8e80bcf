"""The one oracle of every differential test: stdlib ``sqlite3``.

:func:`oracle_for` loads a test's column arrays into one in-memory sqlite
database, and each statement runs there as text. Nothing here imports
the engine, so a parser, analyzer or CNF bug cannot hide on both sides.

- The one rewrite is ``x CONTAINS 'y'`` → ``instr(x, 'y') > 0``; the
  dotted names of nested fields are quoted. What sqlite reads differently
  from the engine (``WITHIN``, ``/``, ``%``, a ``LIMIT`` without
  ``ORDER BY``) is refused, not guessed, and so is a NaN value, which
  sqlite stores as NULL.
- Where the engine answers differently on purpose, the statement names a
  row of :data:`DIVERGENCES`, and under it sqlite's NULL reads as the
  engine's default for the result column's type. An unnamed NULL fails.
- Under ``ORDER BY`` rows compare in order, each run of ties as a
  multiset; otherwise both sides compare as sorted multisets. Floats
  compare at ``rel = abs = 1e-9``.
"""

import math
import re
import sqlite3
from typing import List, Mapping, Optional, Sequence, Tuple

import pytest

#: Where the engine answers differently from sqlite on purpose, and why.
DIVERGENCES = {
    "outer padding": "the engine has no NULL: an outer join pads an unmatched row "
    "with '' (strings) or 0 (numbers) where sqlite writes NULL",
    "missing key": "the engine's columns are dense: a key a record lacks reads as "
    "'' (strings) or 0 (numbers) where sqlite holds NULL",
    "empty aggregate": "over no rows the engine's MIN / MAX / SUM give 0, '' or NaN "
    "by the argument's type, and AVG gives NaN, where sqlite gives NULL",
    "arithmetic comparison": "a comparison whose column side is arithmetic compares in "
    "numpy's types: an int64 value against a float literal is rounded to float64, where "
    "sqlite compares exactly (the analyzer puts only a bare column's literal in its domain)",
}

_LITERAL = re.compile(r"'(?:[^']|'')*'")
#: WITHIN, division, modulo, and a LIMIT that no ORDER BY precedes.
_REFUSED = re.compile(r"\bWITHIN\b|/|%|^(?:(?!\bORDER\s+BY\b).)*\bLIMIT\b", re.I | re.S)
_CONTAINS = re.compile(r"""([\w.]+|"[^"]*")\s+CONTAINS\s+('(?:[^']|'')*')""", re.I)
_ORDER_BY = re.compile(r"\bORDER\s+BY\s+(.+?)(?:\s+LIMIT\s+\d+)?\s*$", re.I | re.S)
_DIRECTION = re.compile(r"\s+(?:ASC|DESC)$", re.I)


def _match(value_a, value_b):
    if isinstance(value_a, float) or isinstance(value_b, float):
        if value_a is None or value_b is None:
            return value_a == value_b
        if math.isnan(value_a) and math.isnan(value_b):
            return True
        return value_a == pytest.approx(value_b, rel=1e-9, abs=1e-9)
    return value_a == value_b


def compare_rows(got: List[Tuple], expected: List[Tuple]) -> Optional[str]:
    """None when the row lists match in order; otherwise a description of
    the first divergence (for invariant-violation reports)."""
    if len(got) != len(expected):
        return f"row count {len(got)} != expected {len(expected)}"
    for i, (row_a, row_b) in enumerate(zip(got, expected)):
        if len(row_a) != len(row_b):
            return f"row {i} width {len(row_a)} != expected {len(row_b)}"
        for a, b in zip(row_a, row_b):
            if not _match(a, b):
                return f"row {i}: got {row_a!r}, expected {row_b!r}"
    return None


def _sort_key(row: Sequence) -> Tuple:
    """A total order over rows of numbers, NaN, strings and None."""
    return tuple(
        (3, 0) if v is None else (2, v) if isinstance(v, str) else (1, 0) if v != v else (0, v)
        for v in row
    )


def _canonical(rows: List[Tuple], keys: Optional[List[int]]) -> List[Tuple]:
    """``rows`` sorted whole without ``keys``; with them, each run of rows
    equal on ``keys`` sorted in place."""
    if keys is None:
        return sorted(rows, key=_sort_key)
    out: List[Tuple] = []
    run: List[Tuple] = []
    for row in rows:
        if run and _sort_key([row[k] for k in keys]) != _sort_key([run[0][k] for k in keys]):
            out += sorted(run, key=_sort_key)
            run = []
        run.append(row)
    return out + sorted(run, key=_sort_key)


def _order_keys(sql: str, names: List[str]) -> Optional[List[int]]:
    """The output positions ``sql`` orders by; None without ORDER BY."""
    found = _ORDER_BY.search(sql)
    if found is None:
        return None
    keys = []
    for item in found.group(1).split(","):
        name = _DIRECTION.sub("", item.strip())
        if name not in names:
            raise ValueError(f"ORDER BY {name} is no output column, so its ties are unknown: {sql}")
        keys.append(names.index(name))
    return keys


def _default(divergence: str, dtype) -> object:
    """The engine's answer where sqlite's is NULL, by the result column's dtype."""
    if dtype == object:
        return ""
    if divergence == "empty aggregate" and dtype.kind == "f":
        return math.nan
    return 0


class SqliteOracle:
    """One in-memory sqlite database holding a test's tables, called as
    ``oracle(sql, result)``: the shape
    :class:`~repro.faults.invariants.InvariantMonitor` consumes."""

    def __init__(self, tables: Mapping[str, Mapping[str, Sequence]]):
        self.db = sqlite3.connect(":memory:")
        self._dotted: List[str] = []
        for name, columns in tables.items():
            self.load(name, columns)

    def load(self, name: str, columns: Mapping[str, Sequence]) -> None:
        """Table ``name`` from ``{column: values}``: arrays or lists, ``None`` as NULL."""
        values = [v.tolist() if hasattr(v, "tolist") else list(v) for v in columns.values()]
        if any(x != x for column in values for x in column):
            raise ValueError(f"table {name} holds NaN, which sqlite stores as NULL")
        self._dotted += [c for c in columns if "." in c and c not in self._dotted]
        quoted = ", ".join(f'"{c}"' for c in columns)
        self.db.execute(f'CREATE TABLE "{name}" ({quoted})')
        self.db.executemany(
            f'INSERT INTO "{name}" VALUES ({", ".join("?" * len(values))})', zip(*values)
        )

    def to_sqlite(self, sql: str) -> str:
        """``sql`` as sqlite must read it; ValueError where sqlite cannot."""
        refused = _REFUSED.search(_LITERAL.sub("''", sql))
        if refused is not None:
            raise ValueError(f"sqlite reads {refused.group().split()[-1]!r} differently: {sql}")
        for name in self._dotted:
            sql = re.sub(rf'(?<![\w."]){re.escape(name)}(?![\w"])', f'"{name}"', sql)
        return _CONTAINS.sub(r"instr(\1, \2) > 0", sql)

    def __call__(self, sql: str, result, divergence: Optional[str] = None) -> Optional[str]:
        """None when ``result`` (the engine's answer) is sqlite's answer to
        ``sql`` under ``divergence``; otherwise what differs."""
        if divergence is not None and divergence not in DIVERGENCES:
            raise KeyError(divergence)
        cursor = self.db.execute(self.to_sqlite(sql))
        want = cursor.fetchall()
        nulls = [row for row in want if None in row]
        if nulls and divergence is None:
            return f"sqlite answers {nulls[0]!r}, a NULL no divergence names"
        if nulls:
            pads = [_default(divergence, result.column(c).dtype) for c in result.columns]
            want = [tuple(p if v is None else v for v, p in zip(row, pads)) for row in want]
        keys = _order_keys(sql, [d[0] for d in cursor.description])
        return compare_rows(_canonical(result.rows(), keys), _canonical(want, keys))

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "SqliteOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def oracle_for(tables: Mapping[str, Mapping[str, Sequence]]) -> SqliteOracle:
    """An ``oracle(sql, result)`` over ``{table: {column: values}}``."""
    return SqliteOracle(tables)
