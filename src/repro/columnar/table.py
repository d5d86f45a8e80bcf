"""Logical table descriptors.

A :class:`Table` is metadata only: its blocks live serialized inside the
storage substrates, addressed by full paths whose prefixes select the
storage plugin (§III-C "common storage layer").  The descriptor carries
everything the planner and scheduler need — schema, block paths, sizes —
without touching data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.columnar.schema import Schema
from repro.errors import StorageError


@dataclass(frozen=True)
class BlockRef:
    """Pointer to one stored block."""

    block_id: str
    path: str
    num_rows: int
    encoded_bytes: int
    #: Encoded size of each column chunk, for projection-aware I/O costing.
    column_bytes: "tuple"
    scale_factor: float = 1.0
    #: Optional per-column (name, min, max) triples for planner pruning.
    column_ranges: "tuple" = ()
    incarnation: int = 0  # of the stored bytes (``StorageSystem.write``); 0 if unknown

    def bytes_for(self, columns: Iterable[str]) -> int:
        """Encoded bytes a scan of ``columns`` must read from this block."""
        wanted = set(columns)
        by_name = dict(self.column_bytes)
        return sum(size for name, size in by_name.items() if name in wanted)

    def range_of(self, column: str):
        """(min, max) catalog statistics for a column, or None."""
        for name, lo, hi in self.column_ranges:
            if name == column:
                return lo, hi
        return None

    @property
    def modeled_rows(self) -> float:
        return self.num_rows * self.scale_factor


@dataclass
class Table:
    """Schema plus an ordered list of block references."""

    name: str
    schema: Schema
    blocks: List[BlockRef] = field(default_factory=list)
    #: Free-form description, e.g. which paper dataset this models.
    description: str = ""
    #: Per-numeric-column equi-width histograms for selectivity
    #: estimation (:mod:`repro.columnar.stats`); populated at load time.
    column_stats: Dict[str, object] = field(default_factory=dict)

    def histogram(self, column: str):
        """The column's histogram, or None when not collected."""
        return self.column_stats.get(column)

    @property
    def num_rows(self) -> int:
        return sum(b.num_rows for b in self.blocks)

    @property
    def modeled_rows(self) -> float:
        return sum(b.modeled_rows for b in self.blocks)

    @property
    def encoded_bytes(self) -> int:
        return sum(b.encoded_bytes for b in self.blocks)

    @property
    def modeled_bytes(self) -> float:
        return sum(b.encoded_bytes * b.scale_factor for b in self.blocks)

    def block(self, block_id: str) -> BlockRef:
        for b in self.blocks:
            if b.block_id == block_id:
                return b
        raise StorageError(f"table {self.name!r} has no block {block_id!r}")

    def add_block(self, ref: BlockRef) -> None:
        if any(b.block_id == ref.block_id for b in self.blocks):
            raise StorageError(f"duplicate block id {ref.block_id!r} in table {self.name!r}")
        self.blocks.append(ref)


class Catalog:
    """Name → table mapping shared across storage domains.

    The paper's cross-domain mechanism shares "the data schema and access
    rights" between geo-distributed systems (§I); this catalog is that
    schema half (rights live in :mod:`repro.security`).
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        #: SQL text -> analyzed statement, kept and bounded by
        #: :func:`repro.sql.analyzer.analyze_sql` for everyone querying
        #: this catalog.
        self.statements: Dict[str, object] = {}

    def register(self, table: Table) -> None:
        if table.name in self._tables:
            raise StorageError(f"table {table.name!r} already registered")
        self._tables[table.name] = table

    def replace(self, table: Table) -> None:
        self._tables[table.name] = table

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"unknown table {name!r}") from None

    def holds(self, table: Table) -> bool:
        """Is ``table`` (this very object) registered under its name?"""
        return self._tables.get(table.name) is table

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> List[str]:
        return sorted(self._tables)

    def drop(self, name: str) -> None:
        if name not in self._tables:
            raise StorageError(f"unknown table {name!r}")
        del self._tables[name]
