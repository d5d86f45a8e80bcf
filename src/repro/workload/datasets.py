"""Synthetic versions of the paper's experimental datasets (Table I).

+-------+----------------+--------------------+------------------+---------+
| Table | Rows (paper)   | Uncompressed size  | Fields           | Storage |
+-------+----------------+--------------------+------------------+---------+
| T1    | 30 billion     | 62 TB              | 200              | A       |
| T2    | 130 billion    | 200 TB             | 200 (same as T1) | B       |
| T3    | 10 billion     | 7 TB               | 57 (subset)      | A       |
+-------+----------------+--------------------+------------------+---------+

T1/T2 model user business log data "carrying URL-clicked information and
query attributes"; T3 is a sample of traced webpage URLs whose attributes
are a subset of T1's/T2's.

The synthesis keeps those structural relationships exactly (shared
schema, subset schema, per-table storage assignment) and scales row
counts down by ``scale`` — each materialized row then *represents*
``scale`` production rows, which the block metadata records so the cost
model charges production-proportional I/O.

Value distributions are chosen to look like web logs: Zipf-ish URL and
query popularity, small categorical domains for province/device, heavy-
tailed click counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.columnar.schema import DataType, Field, Schema

#: Paper-scale row counts.
PAPER_ROWS = {"T1": 30_000_000_000, "T2": 130_000_000_000, "T3": 10_000_000_000}
#: Paper-scale uncompressed sizes in bytes.
PAPER_BYTES = {"T1": 62e12, "T2": 200e12, "T3": 7e12}
PAPER_FIELDS = {"T1": 200, "T2": 200, "T3": 57}

_PROVINCES = [
    "beijing", "shanghai", "guangdong", "zhejiang", "sichuan",
    "shandong", "hubei", "shaanxi", "liaoning", "fujian",
]
_DEVICES = ["desktop", "mobile", "tablet"]
_QUERY_TERMS = [
    "weather", "map", "music", "video", "news", "stock", "travel",
    "recipe", "movie", "game", "novel", "translate", "baike", "tieba",
]

#: Semantic (non-filler) fields shared by T1/T2; T3 uses the first
#: ``T3_SEMANTIC`` of them (subset relationship).
SEMANTIC_FIELDS: List[Field] = [
    Field("query_id", DataType.INT64),
    Field("url", DataType.STRING),
    Field("query_text", DataType.STRING),
    Field("click_count", DataType.INT64),
    Field("dwell_time", DataType.FLOAT64),
    Field("user_id", DataType.INT64),
    Field("province", DataType.STRING),
    Field("device", DataType.STRING),
    Field("ts_hour", DataType.INT64),
    Field("position", DataType.INT64),
]
T3_SEMANTIC = 7


def log_schema(num_fields: int = 200) -> Schema:
    """The T1/T2 schema: semantic head plus integer filler fields."""
    if num_fields < len(SEMANTIC_FIELDS):
        return Schema(SEMANTIC_FIELDS[:num_fields])
    filler = [
        Field(f"f{idx:03d}", DataType.INT64)
        for idx in range(num_fields - len(SEMANTIC_FIELDS))
    ]
    return Schema(SEMANTIC_FIELDS + filler)


def webpage_schema(num_fields: int = 57) -> Schema:
    """The T3 schema — a strict subset of :func:`log_schema`'s fields."""
    head = SEMANTIC_FIELDS[:T3_SEMANTIC]
    filler_needed = max(0, num_fields - len(head))
    # Draw fillers from the full 200-field universe so T3 ⊆ T1/T2 holds
    # for any requested size.
    full = log_schema(len(SEMANTIC_FIELDS) + filler_needed)
    filler = [f for f in full if f.name.startswith("f")][:filler_needed]
    return Schema(head + filler)


@dataclass
class DatasetSpec:
    """One scaled dataset to synthesize."""

    name: str
    rows: int
    num_fields: int
    storage: str
    paper_rows: int
    seed: int

    @property
    def scale_factor(self) -> float:
        return self.paper_rows / self.rows


def default_specs(
    t1_rows: int = 24_000, t2_rows: int = 48_000, t3_rows: int = 8_000, num_fields: int = 24
) -> List[DatasetSpec]:
    """Laptop-scale specs preserving the T2 > T1 > T3 size ordering."""
    t3_fields = max(T3_SEMANTIC, min(57, int(num_fields * 57 / 200) or T3_SEMANTIC))
    return [
        DatasetSpec("T1", t1_rows, num_fields, "storage-a", PAPER_ROWS["T1"], seed=101),
        DatasetSpec("T2", t2_rows, num_fields, "storage-b", PAPER_ROWS["T2"], seed=202),
        DatasetSpec("T3", t3_rows, t3_fields, "storage-a", PAPER_ROWS["T3"], seed=303),
    ]


def synthesize(spec: DatasetSpec) -> Tuple[Schema, Dict[str, np.ndarray]]:
    """Generate one dataset's columns per its schema."""
    schema = log_schema(spec.num_fields) if spec.name != "T3" else webpage_schema(spec.num_fields)
    rng = np.random.default_rng(spec.seed)
    n = spec.rows
    columns: Dict[str, np.ndarray] = {}
    zipf_sites = np.minimum(rng.zipf(1.5, n), 200) - 1
    pages = rng.integers(0, 50, n)
    for f in schema:
        if f.name == "query_id":
            columns[f.name] = rng.integers(0, max(n // 4, 1), n)
        elif f.name == "url":
            columns[f.name] = np.array(
                [f"http://site{s}.example.com/page{p}" for s, p in zip(zipf_sites, pages)],
                dtype=object,
            )
        elif f.name == "query_text":
            terms = rng.choice(len(_QUERY_TERMS), size=n)
            qualifiers = rng.integers(0, 30, n)
            columns[f.name] = np.array(
                [f"{_QUERY_TERMS[t]} q{q}" for t, q in zip(terms, qualifiers)], dtype=object
            )
        elif f.name == "click_count":
            columns[f.name] = np.minimum(rng.zipf(2.0, n), 1000).astype(np.int64)
        elif f.name == "dwell_time":
            columns[f.name] = rng.exponential(30.0, n)
        elif f.name == "user_id":
            columns[f.name] = np.minimum(rng.zipf(1.3, n), 100_000).astype(np.int64)
        elif f.name == "province":
            columns[f.name] = np.array(
                [_PROVINCES[i] for i in rng.integers(0, len(_PROVINCES), n)], dtype=object
            )
        elif f.name == "device":
            columns[f.name] = np.array(
                [_DEVICES[i] for i in rng.integers(0, len(_DEVICES), n)], dtype=object
            )
        elif f.name == "ts_hour":
            columns[f.name] = np.sort(rng.integers(0, 24 * 60, n)).astype(np.int64)
        elif f.name == "position":
            columns[f.name] = rng.integers(1, 11, n)
        else:  # filler fields: small-domain ints, RLE/dict friendly
            columns[f.name] = rng.integers(0, 16, n)
    return schema, columns


def load_paper_datasets(cluster, specs: Optional[List[DatasetSpec]] = None, block_rows: int = 4096):
    """Synthesize and load T1/T2/T3 into a cluster; returns descriptors."""
    tables = {}
    for spec in specs or default_specs():
        schema, columns = synthesize(spec)
        tables[spec.name] = cluster.load_table(
            spec.name,
            schema,
            columns,
            storage=spec.storage,
            block_rows=block_rows,
            scale_factor=spec.scale_factor,
            description=f"synthetic {spec.name} per Table I ({spec.storage})",
        )
    return tables
