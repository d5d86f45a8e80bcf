"""Broadcast joins ≡ sqlite3 on the same rows and the same SQL text.

The same integer / string rows are loaded into an in-memory sqlite3
database and into a cluster whose fact table ``T`` spans three blocks,
with two dimension tables on another storage system: ``D``, whose join
key repeats and misses fact keys, and ``E``, whose keys are distinct.
Every statement runs as text on both, and the sorted rows must match,
after the one rewrite :data:`DIVERGENCES` names for that statement.
"""

import sqlite3

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema

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


@pytest.fixture(scope="module")
def engines():
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=4))
    db = sqlite3.connect(":memory:")
    for name, (columns, storage, block_rows) in TABLES.items():
        cluster.load_table(
            name,
            Schema.of(**{c: _dtype(v) for c, v in columns.items()}),
            {c: np.array(v, dtype=object if _dtype(v) is DataType.STRING else np.int64)
             for c, v in columns.items()},
            storage=storage,
            block_rows=block_rows,
        )
        db.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        db.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*columns.values()),
        )
    assert len(cluster.catalog.get("T").blocks) == 3
    yield cluster, db
    db.close()


def _both(engines, sql, divergence=None):
    cluster, db = engines
    result = cluster.query(sql)
    want = db.execute(sql).fetchall()
    if divergence == "outer padding":
        pads = ["" if result.column(c).dtype == object else 0 for c in result.columns]
        want = [tuple(p if x is None else x for x, p in zip(row, pads)) for row in want]
    return sorted(result.rows()), sorted(want)


def test_every_divergence_is_used_and_explained():
    used = {d for _, d in STATEMENTS if d is not None}
    assert used == set(DIVERGENCES)
    assert all(DIVERGENCES.values())


@pytest.mark.parametrize("sql, divergence", STATEMENTS, ids=[s for s, _ in STATEMENTS])
def test_join_matches_sqlite(engines, sql, divergence):
    got, want = _both(engines, sql, divergence)
    assert want, sql  # every statement has an answer to compare
    assert got == want


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 14: each leaf pads RIGHT JOIN's unmatched dimension rows "
    "against its own block, so a 3-block fact table pads them up to 3 times",
)
def test_right_join_matches_sqlite(engines):
    got, want = _both(
        engines,
        "SELECT D.label, COUNT(*) FROM T RIGHT JOIN D ON T.tk = D.dk GROUP BY D.label",
        "outer padding",
    )
    assert got == want
