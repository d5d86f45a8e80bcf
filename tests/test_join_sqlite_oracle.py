"""Broadcast joins and the log write path ≡ sqlite3 on the same rows.

The same integer / string rows are loaded into an in-memory sqlite3
database and into a cluster whose fact table ``T`` spans three blocks,
with two dimension tables on another storage system: ``D``, whose join
key repeats and misses fact keys, and ``E``, whose keys are distinct.
Every statement runs as text on both, and the sorted rows must match,
after the one rewrite :data:`DIVERGENCES` names for that statement.

The write path is checked the same way: nested log batches enter the
cluster through ``LogIngestor`` and through the conversion daemons, and
sqlite through a flattener written here, one row per record.
"""

import re
import sqlite3

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.errors import PlanError
from repro.planner.adaptive import AdaptiveConfig
from repro.workload.conversion import start_conversion_daemons, write_raw_records
from repro.workload.loggen import LogIngestor, generate_log_records

FACT = {
    "id": list(range(12)),
    "tk": [1, 2, 3, 4, 1, 2, 5, 6, 1, 3, 7, 2],
    "a": [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3],
    "b": [0, 5, 2, 9, 0, 1, 7, 3, 4, 1, 2, 3],
    "v": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
    "s": ["x", "y", "z", "x", "w", "y", "x", "q", "z", "x", "y", "w"],
}
#: Key 2 twice; fact keys 5, 6 and 7 missing; key 8 matches no fact row.
#: Its first column, ``a``, shares a name with a fact column.
DIM = {
    "a": [0, 1, 2, 2, 3, 0],
    "dk": [1, 2, 2, 3, 4, 8],
    "label": ["a", "b", "c", "d", "e", "f"],
}
#: Distinct keys (an aggregate over it may aggregate before it joins).
SECOND = {"e": [0, 1, 2, 9], "tag": ["p", "q", "r", "s"], "name": ["x", "y", "z", "u"]}
TABLES = {
    "T": (FACT, "storage-a", 4),
    "D": (DIM, "storage-b", 100),
    "E": (SECOND, "storage-b", 100),
}

#: Where the engine answers differently from sqlite on purpose, and why.
DIVERGENCES = {
    "outer padding": "the engine has no NULL: an outer join pads an unmatched row "
    "with '' (strings) or 0 (numbers) where sqlite writes NULL",
    "missing key": "the engine's columns are dense: a key a record lacks reads as "
    "'' (strings) or 0 (numbers) where sqlite holds NULL",
}

#: ``(statement, divergence or None)``.
STATEMENTS = [
    # INNER, a repeated and a missing dimension key.
    ("SELECT T.id, D.label FROM T JOIN D ON T.tk = D.dk", None),
    ("SELECT D.label, COUNT(*), SUM(T.v) FROM T JOIN D ON T.tk = D.dk GROUP BY D.label", None),
    ("SELECT T.id, D.label FROM T JOIN D ON T.tk = D.dk WHERE T.v > 2 AND D.label <> 'b'", None),
    ("SELECT E.tag, COUNT(*), SUM(T.v), MAX(T.b) FROM T JOIN E ON T.a = E.e GROUP BY E.tag",
     None),
    ("SELECT T.id, E.tag FROM T JOIN E ON T.s = E.name", None),
    # LEFT, through the hash join and through the filtered product.
    ("SELECT T.id, D.label FROM T LEFT JOIN D ON T.tk = D.dk", "outer padding"),
    ("SELECT COUNT(*), SUM(T.v) FROM T LEFT JOIN D ON T.tk = D.dk", None),
    ("SELECT T.id, D.dk FROM T LEFT JOIN D ON T.tk > D.dk + 3", "outer padding"),
    # A two-key ON, and an ON with a conjunct that is no column equality.
    ("SELECT T.id, D.label FROM T JOIN D ON T.tk = D.dk AND T.a = D.a", None),
    ("SELECT T.id, D.label FROM T JOIN D ON T.tk = D.dk AND T.v > 3", None),
    # A non-equi join, and a comma join whose equality is in the WHERE.
    ("SELECT T.id, D.dk FROM T JOIN D ON T.tk < D.dk", None),
    ("SELECT T.id, D.label FROM T, D WHERE T.tk = D.dk", None),
    # Unqualified ON in both orders.
    ("SELECT id, label FROM T JOIN D ON tk = dk", None),
    ("SELECT id, label FROM T JOIN D ON dk = tk", None),
    ("SELECT T.tk, COUNT(*) FROM T JOIN E ON e = b GROUP BY T.tk", None),
    # Both sides of the ON on the fact table.
    ("SELECT COUNT(*) FROM T JOIN D ON T.a = T.b", None),
    ("SELECT T.id, D.label FROM T JOIN D ON T.a = T.b", None),
    # Two chained broadcasts, the second keyed on the base and on the first.
    ("SELECT T.id, D.label, E.tag FROM T JOIN D ON T.tk = D.dk JOIN E ON T.a = E.e", None),
    ("SELECT T.id, D.label, E.tag FROM T JOIN D ON T.tk = D.dk JOIN E ON D.a = E.e", None),
]


def _dtype(values):
    return DataType.STRING if isinstance(values[0], str) else DataType.INT64


def _engines(fact_block_rows: int, adaptive=None):
    cluster = FeisuCluster(
        FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=4, adaptive=adaptive)
    )
    db = sqlite3.connect(":memory:")
    for name, (columns, storage, block_rows) in TABLES.items():
        cluster.load_table(
            name,
            Schema.of(**{c: _dtype(v) for c, v in columns.items()}),
            {c: np.array(v, dtype=object if _dtype(v) is DataType.STRING else np.int64)
             for c, v in columns.items()},
            storage=storage,
            block_rows=fact_block_rows if name == "T" else block_rows,
        )
        db.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        db.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*columns.values()),
        )
    return cluster, db


@pytest.fixture(scope="module")
def engines():
    cluster, db = _engines(TABLES["T"][2])
    assert len(cluster.catalog.get("T").blocks) == 3
    yield cluster, db
    db.close()


def _both(engines, sql, divergence=None, sqlite_sql=None):
    cluster, db = engines
    result = cluster.query(sql)
    want = db.execute(sqlite_sql or sql).fetchall()
    if divergence is not None:  # each one reads sqlite's NULL as the type's default
        pads = ["" if result.column(c).dtype == object else 0 for c in result.columns]
        want = [tuple(p if x is None else x for x, p in zip(row, pads)) for row in want]
    return sorted(result.rows()), sorted(want)


def test_every_divergence_is_used_and_explained():
    used = {d for _, d in STATEMENTS + WRITE_STATEMENTS if d is not None}
    assert used == set(DIVERGENCES)
    assert all(DIVERGENCES.values())


@pytest.mark.parametrize("sql, divergence", STATEMENTS, ids=[s for s, _ in STATEMENTS])
def test_join_matches_sqlite(engines, sql, divergence):
    got, want = _both(engines, sql, divergence)
    assert want, sql  # every statement has an answer to compare
    assert got == want


RIGHT_SQL = "SELECT D.label, COUNT(*) FROM T RIGHT JOIN D ON T.tk = D.dk GROUP BY D.label"


def test_right_join_over_several_blocks_is_refused(engines):
    """Each leaf pads the dimension rows its own block did not match, so
    over three blocks an unmatched row would count up to three times."""
    cluster, _db = engines
    with pytest.raises(PlanError, match="RIGHT JOIN D"):
        cluster.query(RIGHT_SQL)


@pytest.mark.parametrize(
    "adaptive",
    [None, AdaptiveConfig(pilot_min_rows=1, min_split_rows=1)],
    ids=["frozen", "adaptive"],
)
def test_right_join_over_one_block_matches_sqlite(adaptive):
    cluster, db = _engines(len(FACT["id"]), adaptive)
    assert len(cluster.catalog.get("T").blocks) == 1
    got, want = _both((cluster, db), RIGHT_SQL, "outer padding")
    db.close()
    assert got == want


# -- the write path ---------------------------------------------------------------

#: ``(statement over table {t}, divergence or None)``; rows of hour 9
#: lack some keys.
WRITE_STATEMENTS = [
    ("SELECT COUNT(*) FROM {t}", None),
    ("SELECT request.status, COUNT(*) FROM {t} WHERE hour < 9 GROUP BY request.status", None),
    ("SELECT hour, COUNT(*) FROM {t} WHERE tags CONTAINS 't3' GROUP BY hour", None),
    ("SELECT request.status, action, COUNT(*) FROM {t} WHERE hour = 9 "
     "GROUP BY request.status, action", "missing key"),
]


def _log_batches():
    """Two waves of ``(node index, records)`` batches: two full hours on
    every node, then hour 9, whose records lack a status, an action or tags."""
    full = [(i, generate_log_records(25, i, hour, seed=5)) for hour in range(2) for i in range(4)]
    sparse = generate_log_records(24, 1, 9, seed=5)
    for j, record in enumerate(sparse):
        if j % 2:
            del record["request"]["status"]
        if j % 3:
            del record["action"]
        if j % 4 == 0:
            del record["tags"]
    return full, [(1, sparse)]


def _flatten(record, prefix=""):
    """One record as ``{dotted name: scalar}``, a list as its items joined by ','."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = ",".join(map(str, value)) if isinstance(value, list) else value
    return out


def _to_sqlite(sql):
    """The engine's dotted names quoted, and ``CONTAINS`` as ``instr``."""
    sql = re.sub(r"\b(request\.\w+)", r'"\1"', sql)
    return re.sub(r"(\w+) CONTAINS ('[^']*')", r"instr(\1, \2) > 0", sql)


@pytest.fixture(scope="module")
def ingested():
    """Table ``logs`` written by one ``LogIngestor``, ``dlogs`` by the
    conversion daemons from raw files, both from the same batches; sqlite
    holds each batch row by row."""
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=4))
    ingestor = LogIngestor(cluster, "logs")
    start_conversion_daemons(cluster, "dlogs", period_s=10.0)
    rows = []
    for wave in _log_batches():  # the full hours fix the schema first
        for seq, (i, records) in enumerate(wave):
            ingestor.ingest(cluster.nodes[i], records)
            write_raw_records(cluster, cluster.nodes[i], f"{len(rows)}.{seq}.jsonl", records)
            rows.extend(map(_flatten, records))
        cluster.sim.run(until=cluster.sim.now + 15.0)  # one sweep
    assert cluster.local_fs.list_paths("/raw/") == []
    db = sqlite3.connect(":memory:")
    columns = list(dict.fromkeys(name for row in rows for name in row))
    quoted = ", ".join(f'"{c}"' for c in columns)
    for table in ("logs", "dlogs"):
        db.execute(f"CREATE TABLE {table} ({quoted})")
        db.executemany(
            f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
            [tuple(row.get(c) for c in columns) for row in rows],
        )
    yield cluster, db
    db.close()


@pytest.mark.parametrize("table", ["logs", "dlogs"])
@pytest.mark.parametrize("sql, divergence", WRITE_STATEMENTS, ids=[s for s, _ in WRITE_STATEMENTS])
def test_written_logs_match_sqlite(ingested, table, sql, divergence):
    sql = sql.format(t=table)
    got, want = _both(ingested, sql, divergence, _to_sqlite(sql))
    assert want, sql
    assert got == want
