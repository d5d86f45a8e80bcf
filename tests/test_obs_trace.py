"""Per-query trace spans, EXPLAIN ANALYZE and the metrics time series (S47)."""

from __future__ import annotations

import io
import json

import pytest

from repro.client.cli import main
from repro.client.client import FeisuClient
from repro.cluster.jobs import JobOptions
from repro.obs.trace import Span
from repro.sql.statements import classify_statement

JOIN_SQL = (
    "SELECT label, COUNT(*) n, SUM(clicks) s FROM T JOIN D ON T.c2 = D.c2 "
    "WHERE c1 < 60 GROUP BY label"
)


def _traced_job(cluster, sql=JOIN_SQL):
    return cluster.query_job(sql, options=JobOptions(trace=True))


# -- span-tree invariants -----------------------------------------------------


def test_tracing_is_off_by_default(small_cluster):
    job = small_cluster.query_job("SELECT COUNT(*) FROM T")
    assert job.trace is None


def test_root_span_covers_the_job_exactly(small_cluster):
    job = _traced_job(small_cluster)
    tracer = job.trace
    assert tracer is not None and tracer.root is not None
    assert tracer.root.name == "job"
    assert tracer.root.start_s == pytest.approx(job.submitted_at)
    assert tracer.root.end_s == pytest.approx(job.finished_at)
    assert tracer.root.duration_s == pytest.approx(job.response_time_s)
    assert tracer.root.tags["status"] == "succeeded"
    assert tracer.root.tags["sql"] == JOIN_SQL


def test_every_span_is_finished_and_nested_within_its_parent(small_cluster):
    job = _traced_job(small_cluster)

    def check(span: Span) -> None:
        assert span.end_s is not None, f"{span.name} left open"
        assert span.end_s >= span.start_s
        for child in span.children:
            assert child.start_s >= span.start_s - 1e-9, (span.name, child.name)
            assert child.end_s <= span.end_s + 1e-9, (span.name, child.name)
            check(child)

    check(job.trace.root)


def test_expected_span_names_for_join_query(small_cluster):
    job = _traced_job(small_cluster)
    totals = job.trace.totals_by_name()
    tasks = len(job.plan.tasks)
    assert totals["job"]["count"] == 1
    assert totals["fetch_broadcasts"]["count"] == 1
    for name in ("dispatch", "queue_wait", "index_probe", "scan", "aggregate", "result_return"):
        assert totals[name]["count"] >= tasks, f"missing {name} spans"
    attempts = job.trace.find("task.attempt0")
    assert len(attempts) == tasks
    for span in attempts:
        assert "worker" in span.tags and "task_id" in span.tags
        assert isinstance(span.tags["data_local"], bool)
        assert span.tags["backup"] is False


def test_bytes_are_tagged_per_traffic_class(small_cluster):
    job = _traced_job(small_cluster)
    by_class = job.trace.bytes_by_class()
    # Dispatch is CONTROL, broadcast fetch + result return are READ.
    assert by_class.get("control", 0) > 0
    assert by_class.get("read", 0) > 0
    for value in by_class.values():
        assert value >= 0


def test_index_probe_spans_record_cover_outcomes(fresh_cluster):
    sql = "SELECT COUNT(*) FROM T WHERE c1 < 50"
    cold = _traced_job(fresh_cluster, sql)
    warm = _traced_job(fresh_cluster, sql)
    cold_hits = cold.trace.tag_sum("atom_hits", "index_probe")
    warm_hits = warm.trace.tag_sum("atom_hits", "index_probe")
    assert cold_hits == 0, "first run cannot hit the index"
    assert warm_hits > 0, "second identical run should hit built entries"
    assert any(s.tags.get("full_cover") for s in warm.trace.find("index_probe"))


# -- export ---------------------------------------------------------------------


def test_export_is_json_ready(small_cluster):
    job = _traced_job(small_cluster)
    exported = job.trace.export()
    assert json.loads(json.dumps(exported)) == exported
    assert exported["job_id"] == job.job_id
    assert exported["root"]["name"] == "job"


# -- EXPLAIN ANALYZE ----------------------------------------------------------


def test_explain_analyze_annotates_each_operator(small_cluster):
    client = FeisuClient(small_cluster, "analyst")
    text = client.explain_analyze(JOIN_SQL)
    # Plan skeleton with actuals interleaved under each operator.
    assert "scan T" in text
    assert "actual:" in text and "attempts" in text
    assert "actual index:" in text and "probes" in text
    assert "actual queue wait:" in text
    assert "broadcast join [INNER] D" in text
    assert "shipped" in text  # broadcast actual line
    assert "partial-aggregate CPU" in text
    # Execution footer: response, phases, traffic, stragglers.
    assert "execution:" in text
    assert "response:" in text and "simulated" in text
    assert "phase scan:" in text
    assert "traffic:" in text
    assert "slowest task attempts:" in text


def test_explain_analyze_shows_rows_in_and_out(small_cluster):
    client = FeisuClient(small_cluster, "analyst")
    text = client.explain_analyze("SELECT COUNT(*) FROM T WHERE c1 < 10")
    line = next(l for l in text.splitlines() if "rows" in l and "->" in l)
    left, right = line.split("rows")[1].split("->")
    assert int(left.strip().replace(",", "")) >= int(right.strip().replace(",", ""))


def test_explain_analyze_does_not_leak_tracing_into_later_queries(small_cluster):
    client = FeisuClient(small_cluster, "analyst")
    client.explain_analyze("SELECT COUNT(*) FROM T")
    job = small_cluster.query_job("SELECT COUNT(*) FROM T")
    assert job.trace is None


# -- statement classification -------------------------------------------------


def test_classify_statement_modes():
    assert classify_statement("SELECT 1 FROM T") == ("query", "SELECT 1 FROM T")
    assert classify_statement("  explain SELECT c1 FROM T") == ("explain", "SELECT c1 FROM T")
    assert classify_statement("EXPLAIN ANALYZE SELECT c1 FROM T") == (
        "explain_analyze",
        "SELECT c1 FROM T",
    )
    assert classify_statement("Explain   Analyze\n SELECT 1 FROM T")[0] == "explain_analyze"
    assert classify_statement("EXPLAIN") == ("explain", "")
    assert classify_statement("") == ("query", "")


def test_cli_explain_analyze_statement():
    out = io.StringIO()
    code = main(
        ["--sql", "EXPLAIN ANALYZE SELECT province, COUNT(*) FROM T1 GROUP BY province",
         "--t1-rows", "2000", "--t2-rows", "2000", "--t3-rows", "1000", "--nodes", "2"],
        stdout=out,
    )
    output = out.getvalue()
    assert code == 0
    assert "actual:" in output
    assert "execution:" in output
    assert "slowest task attempts:" in output


# -- metrics time series ------------------------------------------------------


def test_metrics_sampler_collects_periodic_snapshots(fresh_cluster):
    series = fresh_cluster.start_metrics_sampler(period_s=5.0, retention_s=3600.0)
    assert fresh_cluster.metrics_series is series
    fresh_cluster.query("SELECT COUNT(*) FROM T")
    fresh_cluster.sim.run(until=fresh_cluster.sim.now + 30.0)
    assert series.samples_taken >= 5
    latest = series.latest()
    assert latest is not None
    assert latest["jobs_total"] >= 1 and latest["jobs_succeeded"] >= 1
    assert series.timestamps() == sorted(series.timestamps())
    assert len(series.series("jobs_total")) == len(series.samples)
    exported = series.export()
    json.dumps(exported)  # JSON-ready
    assert exported[-1]["jobs_total"] == latest["jobs_total"]


def test_metrics_sampler_respects_retention(fresh_cluster):
    series = fresh_cluster.start_metrics_sampler(period_s=1.0, retention_s=5.0)
    fresh_cluster.sim.run(until=60.0)
    assert series.samples_evicted > 0
    assert len(series.samples) <= 7  # window + in-flight slack
    assert series.timestamps()[0] >= fresh_cluster.sim.now - 5.0 - 1.0


def test_metrics_sampler_start_is_idempotent(fresh_cluster):
    a = fresh_cluster.start_metrics_sampler(period_s=2.0)
    proc = a._proc  # noqa: SLF001
    assert a.start() is a
    assert a._proc is proc  # noqa: SLF001
