"""The §III per-node raw→columnar conversion daemon."""

import pytest

from repro.workload.conversion import (
    ConversionDaemon,
    start_conversion_daemons,
    write_raw_records,
)
from repro.workload.loggen import LogIngestor, generate_log_records


def _convert(cluster, daemon):
    return cluster.sim.run_until_complete(cluster.sim.process(daemon.convert_pending()))


def test_daemon_converts_raw_files(fresh_cluster):
    node = fresh_cluster.nodes[0]
    records = generate_log_records(50, node_idx=0, hour=0)
    write_raw_records(fresh_cluster, node, "h0.jsonl", records)
    daemon = ConversionDaemon(LogIngestor(fresh_cluster, "dlogs"), node)
    converted = _convert(fresh_cluster, daemon)
    assert converted == 1
    assert daemon.stats.records_converted == 50
    table = fresh_cluster.catalog.get("dlogs")
    assert table.num_rows == 50
    # raw file consumed
    assert fresh_cluster.local_fs.list_paths(f"/raw/{node}/") == []
    # converted data is queryable
    r = fresh_cluster.query("SELECT COUNT(*) FROM dlogs")
    assert r.rows()[0][0] == 50


def test_daemon_charges_node_cpu(fresh_cluster):
    node = fresh_cluster.nodes[1]
    leaf = fresh_cluster.leaf_at(node)
    before = leaf.cpu.ops_executed
    write_raw_records(
        fresh_cluster, node, "x.jsonl", generate_log_records(30, node_idx=1, hour=0)
    )
    _convert(fresh_cluster, ConversionDaemon(LogIngestor(fresh_cluster, "dlogs2"), node))
    assert leaf.cpu.ops_executed > before


def test_background_daemons_pick_up_new_arrivals(fresh_cluster):
    daemons = start_conversion_daemons(fresh_cluster, table_name="dlogs3", period_s=10.0)
    assert len(daemons) == len(fresh_cluster.nodes)
    for i, node in enumerate(fresh_cluster.nodes[:3]):
        write_raw_records(
            fresh_cluster, node, "a.jsonl", generate_log_records(20, node_idx=i, hour=0)
        )
    fresh_cluster.sim.run(until=fresh_cluster.sim.now + 25.0)
    table = fresh_cluster.catalog.get("dlogs3")
    assert table.num_rows == 60
    # a second wave arrives later and is converted on the next sweep
    write_raw_records(
        fresh_cluster, fresh_cluster.nodes[0], "b.jsonl",
        generate_log_records(20, node_idx=0, hour=1),
    )
    fresh_cluster.sim.run(until=fresh_cluster.sim.now + 15.0)
    assert table.num_rows == 80


def test_schema_alignment_across_nodes(fresh_cluster):
    node_a, node_b = fresh_cluster.nodes[0], fresh_cluster.nodes[1]
    write_raw_records(fresh_cluster, node_a, "a.jsonl", [{"x": 1, "y": "hello"}])
    write_raw_records(fresh_cluster, node_b, "b.jsonl", [{"x": 2}])  # y missing
    ingestor = LogIngestor(fresh_cluster, "dlogs4")
    for node in (node_a, node_b):
        _convert(fresh_cluster, ConversionDaemon(ingestor, node))
    r = fresh_cluster.query("SELECT x, y FROM dlogs4 ORDER BY x")
    assert r.rows() == [(1, "hello"), (2, "")]


def test_empty_raw_file_discarded(fresh_cluster):
    node = fresh_cluster.nodes[2]
    fresh_cluster.local_fs.write(f"/raw/{node}/empty.jsonl", b"", node=node)
    daemon = ConversionDaemon(LogIngestor(fresh_cluster, "dlogs5"), node)
    converted = _convert(fresh_cluster, daemon)
    assert converted == 0
    assert fresh_cluster.local_fs.list_paths(f"/raw/{node}/") == []


def test_converted_batches_are_cast_onto_the_table_schema(fresh_cluster):
    """The daemons feed one ``LogIngestor``: a file whose column infers to
    another type is cast to the table's, not stored as it came."""
    node_a, node_b = fresh_cluster.nodes[0], fresh_cluster.nodes[1]
    write_raw_records(fresh_cluster, node_a, "a.jsonl", [{"tag": "a", "score": 1.5}, {"tag": "b", "score": 2.5}])
    write_raw_records(fresh_cluster, node_b, "b.jsonl", [{"tag": 7, "score": 3}, {"tag": 8, "score": 4}, {"tag": 7}])
    ingestor = LogIngestor(fresh_cluster, "dtyped")
    for node in (node_a, node_b):
        _convert(fresh_cluster, ConversionDaemon(ingestor, node))
    rows = fresh_cluster.query("SELECT tag, score FROM dtyped").rows()
    assert sorted(rows) == [("7", 0.0), ("7", 3.0), ("8", 4.0), ("a", 1.5), ("b", 2.5)]
    assert fresh_cluster.query("SELECT COUNT(*) FROM dtyped WHERE tag = '7'").rows() == [(2,)]
    assert fresh_cluster.query("SELECT SUM(score) FROM dtyped WHERE score > 2.75").rows() == [(7.0,)]


def test_a_file_without_fields_does_not_fix_the_schema(fresh_cluster):
    """A first file of empty records is rejected, not made a zero-column
    table that every later file is then aligned onto (and emptied by)."""
    node = fresh_cluster.nodes[0]
    write_raw_records(fresh_cluster, node, "a.jsonl", [{}])
    write_raw_records(fresh_cluster, node, "b.jsonl", [{"x": 1, "y": "hi"}, {"x": 2}])
    daemon = start_conversion_daemons(fresh_cluster, table_name="dempty")[0]
    converted = _convert(fresh_cluster, daemon)
    assert fresh_cluster.query("SELECT COUNT(*) FROM dempty").rows() == [(2,)]
    assert fresh_cluster.query("SELECT x, y FROM dempty ORDER BY x").rows() == [(1, "hi"), (2, "")]
    assert converted == 1
    assert fresh_cluster.local_fs.list_paths(f"/raw/{node}/") == [f"/raw/{node}/a.jsonl"]
    assert daemon.stats.files_rejected == 1


def test_a_rejected_file_is_kept_and_the_daemon_goes_on(fresh_cluster):
    """A value the table's type cannot hold rejects its file, as do an int
    past 64 bits and a torn json line; the files stay, and the daemon
    converts the files after them, in this sweep and in every later one."""
    node = fresh_cluster.nodes[0]
    daemon = start_conversion_daemons(fresh_cluster, table_name="dbad", period_s=10.0)[0]
    write_raw_records(fresh_cluster, node, "a.jsonl", [{"x": 1}])
    write_raw_records(fresh_cluster, node, "b.jsonl", [{"x": "not-an-int"}])
    write_raw_records(fresh_cluster, node, "b.big.jsonl", [{"x": 2**70}])
    fresh_cluster.local_fs.write(f"/raw/{node}/b.torn.jsonl", b'{"x": 2', node=node)
    write_raw_records(fresh_cluster, node, "c.jsonl", [{"x": 3}])
    fresh_cluster.sim.run(until=fresh_cluster.sim.now + 15.0)
    assert fresh_cluster.query("SELECT x FROM dbad ORDER BY x").rows() == [(1,), (3,)]
    write_raw_records(fresh_cluster, node, "d.jsonl", [{"x": 4}])
    fresh_cluster.sim.run(until=fresh_cluster.sim.now + 35.0)
    assert fresh_cluster.query("SELECT x FROM dbad ORDER BY x").rows() == [(1,), (3,), (4,)]
    kept = [f"/raw/{node}/{name}" for name in ("b.jsonl", "b.big.jsonl", "b.torn.jsonl")]
    assert sorted(fresh_cluster.local_fs.list_paths(f"/raw/{node}/")) == sorted(kept)
    assert daemon.stats.files_converted == 3
    assert daemon.stats.files_rejected >= 6  # each of them in every sweep
