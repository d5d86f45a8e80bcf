"""EXPLAIN rendering and the command-line front-end."""

import io

import pytest

from repro.client.cli import build_parser, main
from repro.errors import AccessDeniedError, ParseError
from repro.client import FeisuClient


# -- EXPLAIN -------------------------------------------------------------------


def test_explain_simple_scan(small_cluster):
    text = small_cluster.explain("SELECT COUNT(*) FROM T WHERE c2 > 3 AND c2 <= 7")
    assert "scan T" in text
    assert "(c2 > 3)" in text and "(c2 <= 7)" in text
    assert "SmartIndex-eligible" in text
    assert "index-covered" in text
    assert "payload columns: (none)" in text  # COUNT(*) needs no payload


def test_explain_join_and_grouping(small_cluster):
    text = small_cluster.explain(
        "SELECT label, SUM(clicks) s FROM T JOIN D ON T.c2 = D.c2 "
        "WHERE c1 < 10 GROUP BY label HAVING SUM(clicks) > 1 ORDER BY s DESC LIMIT 5"
    )
    assert "broadcast join [INNER] D AS D" in text
    assert "group keys: label" in text
    assert "having:" in text
    assert "limit: 5" in text
    assert "order by: s DESC" in text


def test_explain_shows_pruning(small_cluster):
    text = small_cluster.explain("SELECT COUNT(*) FROM T WHERE c1 > 100000")
    assert "0 tasks" in text
    assert "blocks pruned" in text


def test_explain_residual_predicates_in_post_filter(small_cluster):
    text = small_cluster.explain("SELECT COUNT(*) FROM T WHERE c1 + c2 > 5")
    assert "post-join filter: ((c1 + c2) > 5)" in text
    assert "scan predicates: (none)" in text


def test_client_explain_checks_rights(fresh_cluster):
    fresh_cluster.create_user("reader")  # no table grants
    client = FeisuClient(fresh_cluster, "reader")
    with pytest.raises(AccessDeniedError):
        client.explain("SELECT COUNT(*) FROM T")
    with pytest.raises(ParseError):
        client.explain("SELEC nope")


# -- CLI ----------------------------------------------------------------------------


def _run_cli(args):
    out = io.StringIO()
    code = main(args, stdout=out)
    return code, out.getvalue()


def test_cli_runs_inline_sql():
    code, output = _run_cli(
        ["--sql", "SELECT COUNT(*) AS n FROM T1", "--t1-rows", "2000", "--t2-rows", "2000",
         "--t3-rows", "1000", "--nodes", "2"]
    )
    assert code == 0
    assert "feisu> SELECT COUNT(*) AS n FROM T1" in output
    assert "2000" in output
    assert "ms simulated" in output


def test_cli_explain_statement():
    code, output = _run_cli(
        ["--sql", "EXPLAIN SELECT url FROM T1 WHERE click_count > 3",
         "--t1-rows", "2000", "--t2-rows", "2000", "--t3-rows", "1000", "--nodes", "2"]
    )
    assert code == 0
    assert "scan T1" in output
    assert "click_count > 3" in output


def test_cli_script_file(tmp_path):
    script = tmp_path / "queries.sql"
    # The script is UTF-8 whatever the locale: the third statement's
    # literal must reach the parser intact.
    script.write_text(
        "SELECT COUNT(*) n FROM T1;\nSELECT province, COUNT(*) c FROM T1 GROUP BY province ORDER BY c DESC LIMIT 2;"
        "\nSELECT COUNT(*) n FROM T1 WHERE province = 'Zhèjiāng 浙江';",
        encoding="utf-8",
    )
    code, output = _run_cli(
        [str(script), "--t1-rows", "2000", "--t2-rows", "2000", "--t3-rows", "1000", "--nodes", "2"]
    )
    assert code == 0
    assert output.count("feisu>") == 3
    assert "WHERE province = 'Zhèjiāng 浙江'" in output


def test_cli_reports_errors_and_continues():
    code, output = _run_cli(
        ["--sql", "SELECT nope FROM T1", "--sql", "SELECT COUNT(*) n FROM T1",
         "--t1-rows", "2000", "--t2-rows", "2000", "--t3-rows", "1000", "--nodes", "2"]
    )
    assert code == 1
    assert "error:" in output
    assert output.count("feisu>") == 2  # second statement still ran


def test_cli_no_sql_given():
    code, output = _run_cli([])
    assert code == 2
    assert "no SQL" in output


def test_cli_parser_defaults():
    args = build_parser().parse_args([])
    assert args.t1_rows == 8000
    assert args.user == "cli"


# -- EXPLAIN ANALYZE -------------------------------------------------------------


def test_explain_analyze_reports_execution(fresh_cluster):
    fresh_cluster.create_user("ea", admin=True)
    client = FeisuClient(fresh_cluster, "ea")
    text = client.explain_analyze("SELECT COUNT(*) FROM T WHERE c2 > 3")
    assert "execution:" in text
    assert "response:" in text
    assert "slowest task attempts:" in text
    assert "SmartIndex: 0/" in text  # cold run: nothing covered yet
    text2 = client.explain_analyze("SELECT COUNT(*) FROM T WHERE c2 > 3")
    assert "SmartIndex: 0/" not in text2  # warm: covered attempts appear


def test_task_timeline_recorded(fresh_cluster):
    job = fresh_cluster.query_job("SELECT COUNT(*) FROM T WHERE c1 < 50")
    assert len(job.task_timeline) == job.stats.tasks_total
    for t in job.task_timeline:
        assert t.finished_at >= t.started_at >= job.submitted_at
        assert t.worker_id.startswith("leaf-")
        assert not t.backup


def test_timeline_marks_backups(fresh_cluster):
    victim = fresh_cluster.leaves[0]
    fresh_cluster.sim.schedule(0.0005, victim.crash)
    job = fresh_cluster.query_job("SELECT SUM(clicks) FROM T WHERE c1 >= 0")
    if job.stats.backups_launched > 0:
        assert any(t.backup for t in job.task_timeline)
    victim.recover()
