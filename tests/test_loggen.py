"""Log ingestion pipeline: nested records → local-FS columnar blocks."""

import pytest

from repro.errors import AnalysisError
from repro.workload.loggen import LogIngestor, generate_log_records


def test_records_have_nested_shape():
    records = generate_log_records(10, node_idx=0, hour=0)
    assert len(records) == 10
    assert "request" in records[0] and "page" in records[0]["request"]


def test_ingest_registers_flattened_table(fresh_cluster):
    ing = LogIngestor(fresh_cluster)
    ing.ingest_hour(0, records_per_node=50)
    table = ing.table
    assert "request.status" in table.schema
    assert "action" in table.schema
    assert table.num_rows == 50 * len(fresh_cluster.nodes)


def test_blocks_live_on_producing_nodes(fresh_cluster):
    ing = LogIngestor(fresh_cluster)
    ing.ingest_hour(0, records_per_node=20)
    for ref in ing.table.blocks:
        assert len(fresh_cluster.router.locations(ref.path)) == 1  # local FS: one replica


def test_queries_over_ingested_logs(fresh_cluster):
    ing = LogIngestor(fresh_cluster)
    ing.ingest_hour(0, records_per_node=100)
    ing.ingest_hour(1, records_per_node=100)
    total = fresh_cluster.query("SELECT COUNT(*) FROM service_logs")
    assert total.rows()[0][0] == 200 * len(fresh_cluster.nodes)
    by_hour = fresh_cluster.query(
        "SELECT hour, COUNT(*) c FROM service_logs GROUP BY hour ORDER BY hour"
    )
    assert by_hour.rows() == [(0, 100 * len(fresh_cluster.nodes)), (1, 100 * len(fresh_cluster.nodes))]


def test_dotted_column_predicates(fresh_cluster):
    ing = LogIngestor(fresh_cluster)
    ing.ingest_hour(0, records_per_node=100)
    ok = fresh_cluster.query("SELECT COUNT(*) FROM service_logs WHERE request.status = 200")
    bad = fresh_cluster.query("SELECT COUNT(*) FROM service_logs WHERE request.status != 200")
    total = fresh_cluster.query("SELECT COUNT(*) FROM service_logs")
    assert ok.rows()[0][0] + bad.rows()[0][0] == total.rows()[0][0]


def test_table_property_before_ingest(fresh_cluster):
    ing = LogIngestor(fresh_cluster)
    with pytest.raises(RuntimeError):
        _ = ing.table


def test_batches_are_cast_onto_the_first_seen_schema(fresh_cluster):
    """A later batch whose column infers to another type is stored as the
    table's type, not passed through (it used to land as ints under a
    STRING field: SELECT returned 7, and ``tag = '7'`` matched nothing)."""
    ing = LogIngestor(fresh_cluster, table_name="typed")
    nodes = fresh_cluster.nodes
    ing.ingest(nodes[0], [{"tag": "a", "score": 1.5}, {"tag": "b", "score": 2.5}])
    ing.ingest(nodes[1], [{"tag": 7, "score": 3}, {"tag": 8, "score": 4}, {"tag": 7}])
    rows = fresh_cluster.query("SELECT tag, score FROM typed").rows()
    assert sorted(rows) == [("7", 0.0), ("7", 3.0), ("8", 4.0), ("a", 1.5), ("b", 2.5)]
    assert fresh_cluster.query("SELECT COUNT(*) FROM typed WHERE tag = '7'").rows() == [(2,)]
    assert fresh_cluster.query("SELECT SUM(score) FROM typed WHERE score > 2.75").rows() == [(7.0,)]


def test_an_empty_batch_fixes_no_schema(fresh_cluster):
    """An empty first batch used to fix the table at zero columns, so every
    later batch was stored as zero columns: COUNT(*) read 0 and GROUP BY
    action raised "unknown column".  An empty batch now writes nothing."""
    ing = LogIngestor(fresh_cluster)
    node = fresh_cluster.nodes[0]
    assert ing.ingest(node, []) is None
    with pytest.raises(RuntimeError):
        _ = ing.table
    records = generate_log_records(10, node_idx=0, hour=0)
    ing.ingest(node, records)
    assert ing.ingest(node, []) is None
    assert len(ing.table.blocks) == 1
    assert fresh_cluster.query("SELECT COUNT(*) FROM service_logs").rows() == [(10,)]
    by_action = fresh_cluster.query(
        "SELECT action, COUNT(*) AS n FROM service_logs GROUP BY action ORDER BY action"
    ).rows()
    want = sorted({r["action"] for r in records})
    assert [a for a, _ in by_action] == want
    assert sum(n for _, n in by_action) == 10


def test_a_first_batch_without_fields_is_refused(fresh_cluster):
    ing = LogIngestor(fresh_cluster)
    node = fresh_cluster.nodes[0]
    with pytest.raises(AnalysisError, match="no fields"):
        ing.ingest(node, [{}, {"request": {}}])
    ing.ingest(node, generate_log_records(5, node_idx=0, hour=0))
    ing.ingest(node, [{}])  # once the schema is fixed, a fieldless record is all defaults
    assert fresh_cluster.query("SELECT COUNT(*) FROM service_logs").rows() == [(6,)]
