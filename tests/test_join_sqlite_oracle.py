"""Broadcast joins and the log write path ≡ sqlite3 on the same rows.

The same integer / string rows are loaded into an in-memory sqlite3
database and into a cluster whose fact table ``T`` spans three blocks,
with two dimension tables on another storage system: ``D``, whose join
key repeats and misses fact keys, and ``E``, whose keys are distinct.
Every statement runs as text on both through the oracle of
``tests/_oracle.py``, and the rows must match, with sqlite's NULL read
as the engine's default only where the statement names one of its
``DIVERGENCES``.

The e2e ``join_groupby`` statements run the same way over the skewed
fact / dimension pair they are written for.

The write path is checked the same way: nested log batches enter the
cluster through ``LogIngestor`` and through the conversion daemons, and
sqlite through a flattener written here, one row per record.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.cluster.node import LeafConfig
from repro.errors import PlanError
from repro.workload.conversion import start_conversion_daemons, write_raw_records
from repro.workload.generator import skewed_join_dataset, skewed_join_queries
from repro.workload.loggen import LogIngestor, generate_log_records
from tests import _oracle
from tests._oracle import DIVERGENCES, oracle_for

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
    # Aggregates over no rows.
    ("SELECT MIN(T.s), MAX(T.v), SUM(T.v), AVG(T.v) FROM T JOIN D ON T.tk = D.dk "
     "WHERE T.v > 100", "empty aggregate"),
]


def _dtype(values):
    return DataType.STRING if isinstance(values[0], str) else DataType.INT64


def _engines(fact_block_rows: int):
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=4))
    for name, (columns, storage, block_rows) in TABLES.items():
        cluster.load_table(
            name,
            Schema.of(**{c: _dtype(v) for c, v in columns.items()}),
            {c: np.array(v, dtype=object if _dtype(v) is DataType.STRING else np.int64)
             for c, v in columns.items()},
            storage=storage,
            block_rows=fact_block_rows if name == "T" else block_rows,
        )
    return cluster, oracle_for({name: columns for name, (columns, _, _) in TABLES.items()})


@pytest.fixture(scope="module")
def engines():
    cluster, oracle = _engines(TABLES["T"][2])
    assert len(cluster.catalog.get("T").blocks) == 3
    with oracle:
        yield cluster, oracle


def _assert_matches(engines, sql, divergence):
    cluster, oracle = engines
    result = cluster.query(sql)
    assert result.num_rows, sql  # every statement has an answer to compare
    assert oracle(sql, result, divergence) is None, (sql, result.rows())


#: ``(statement over N, divergence, the engine's rows)``: sqlite answers
#: these otherwise, for the reason the divergence names.
NUMBERS = {"a": [2**53, 2**53 + 1, 3, -5, 0, 2**53 + 1]}
DIVERGENT = [
    ("SELECT COUNT(*) FROM N WHERE a + 0 > 9007199254740992.0", "arithmetic comparison", [(0,)]),
]


@pytest.mark.parametrize("sql, divergence, rows", DIVERGENT, ids=[s for s, _, _ in DIVERGENT])
def test_divergent_statement_answers_as_named(sql, divergence, rows):
    cluster = FeisuCluster(FeisuConfig())
    cluster.load_table("N", Schema.of(a=DataType.INT64), {"a": np.array(NUMBERS["a"])})
    result = cluster.query(sql)
    assert result.rows() == rows
    with oracle_for({"N": NUMBERS}) as oracle:
        assert oracle(sql, result, divergence) is not None


def test_every_divergence_is_used_and_explained():
    used = {d for _, d in STATEMENTS + WRITE_STATEMENTS if d is not None}
    used |= {d for _, d, _ in DIVERGENT}
    assert used == set(DIVERGENCES)
    assert all(DIVERGENCES.values())


def test_oracle_imports_nothing_of_the_engine():
    tree = ast.parse(Path(_oracle.__file__).read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "sqlite3" in names
    assert [n for n in names if "repro" in n.split(".")] == []


def test_oracle_fails_what_it_must(engines):
    """An unnamed NULL fails; ORDER BY fixes the order up to ties and its
    absence does not; what sqlite reads differently is refused."""
    cluster, oracle = engines
    empty, _divergence = STATEMENTS[-1]
    assert "NULL" in oracle(empty, cluster.query(empty))
    by_a_then_id_down = cluster.query("SELECT a, id FROM T ORDER BY a, id DESC")
    assert oracle("SELECT a, id FROM T ORDER BY a", by_a_then_id_down) is None
    assert oracle("SELECT a, id FROM T ORDER BY a DESC", by_a_then_id_down) is not None
    assert oracle("SELECT a, id FROM T", by_a_then_id_down) is None
    for sql in ("SELECT id / 2 FROM T", "SELECT id % 2 FROM T", "SELECT id FROM T LIMIT 2",
                "SELECT COUNT(a) WITHIN b FROM T"):
        with pytest.raises(ValueError, match="differently"):
            oracle(sql, by_a_then_id_down)


@pytest.mark.parametrize("sql, divergence", STATEMENTS, ids=[s for s, _ in STATEMENTS])
def test_join_matches_sqlite(engines, sql, divergence):
    _assert_matches(engines, sql, divergence)


RIGHT_SQL = "SELECT D.label, COUNT(*) FROM T RIGHT JOIN D ON T.tk = D.dk GROUP BY D.label"


def test_right_join_over_several_blocks_is_refused(engines):
    """Each leaf pads the dimension rows its own block did not match, so
    over three blocks an unmatched row would count up to three times."""
    cluster, _oracle = engines
    with pytest.raises(PlanError, match="RIGHT JOIN D"):
        cluster.query(RIGHT_SQL)


def test_right_join_over_one_block_matches_sqlite():
    cluster, oracle = _engines(len(FACT["id"]))
    assert len(cluster.catalog.get("T").blocks) == 1
    with oracle:
        _assert_matches((cluster, oracle), RIGHT_SQL, "outer padding")


# -- the join_groupby statements --------------------------------------------------


def test_join_groupby_statements_match_sqlite():
    """The e2e ``join_groupby`` workload's 40 statements over a hot join
    key and a CONTAINS filter the planner underestimates ~6x."""
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=8,
            leaf=LeafConfig(enable_smartindex=False),
        )
    )
    fact, dim = skewed_join_dataset(20000, seed=9)
    cluster.load_table(
        "T",
        Schema.of(k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64, note=DataType.STRING),
        fact,
        storage="storage-a",
        block_rows=5000,
        scale_factor=500,
    )
    cluster.load_table(
        "D", Schema.of(k=DataType.INT64, label=DataType.STRING), dim,
        storage="storage-b", block_rows=100,
    )
    with oracle_for({"T": fact, "D": dim}) as oracle:
        for sql in skewed_join_queries(40, seed=9):
            divergence = oracle(sql, cluster.query(sql))
            assert divergence is None, (sql, divergence)


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
    names = dict.fromkeys(name for row in rows for name in row)
    columns = {name: [row.get(name) for row in rows] for name in names}
    with oracle_for({"logs": columns, "dlogs": columns}) as oracle:
        yield cluster, oracle


@pytest.mark.parametrize("table", ["logs", "dlogs"])
@pytest.mark.parametrize("sql, divergence", WRITE_STATEMENTS, ids=[s for s, _ in WRITE_STATEMENTS])
def test_written_logs_match_sqlite(ingested, table, sql, divergence):
    _assert_matches(ingested, sql.format(t=table), divergence)
