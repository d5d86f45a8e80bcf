"""Client-end: syntax checking, access verification, history, preferences."""

import pytest

from repro.client import FeisuClient
from repro.errors import AccessDeniedError, ParseError
from repro.planner.physical import plan_fingerprint
from tests.conftest import CLICKS_SCHEMA


@pytest.fixture()
def client(fresh_cluster):
    fresh_cluster.create_user("dev", admin=True)
    return FeisuClient(fresh_cluster, "dev")


def test_syntax_check_ok(client):
    assert client.check_syntax("SELECT COUNT(*) FROM T").ok


def test_syntax_check_reports_position_and_hint(client):
    report = client.check_syntax("SELECT a")
    assert not report.ok
    assert "FROM" in report.message
    report2 = client.check_syntax("SELECT a, FROM T")
    assert not report2.ok


def test_query_raises_on_bad_syntax(client):
    with pytest.raises(ParseError):
        client.query("SELEC x FROM T")


def test_query_executes_and_records_history(client):
    r = client.query("SELECT COUNT(*) FROM T WHERE c2 > 3")
    assert r.num_rows == 1
    assert len(client.history) == 1
    entry = client.history.entries()[0]
    assert entry.tables == ("T",)
    assert "c2 > 3" in entry.predicate_keys


def test_frozen_history_digest_recorded(client):
    job = client.query_job("SELECT COUNT(*) AS n FROM T WHERE c1 > 50")
    assert client.history.entries()[-1].plan_digest == plan_fingerprint(job.plan)


def test_access_verification_client_side(fresh_cluster):
    fresh_cluster.create_user("nogruniversal")  # no grants at all
    client = FeisuClient(fresh_cluster, "nogruniversal")
    with pytest.raises(AccessDeniedError):
        client.query("SELECT COUNT(*) FROM T")


def test_frequent_predicates_ranking(client):
    for _ in range(3):
        client.query("SELECT COUNT(*) FROM T WHERE c2 > 5")
    client.query("SELECT COUNT(*) FROM T WHERE c1 = 7")
    frequent = client.history.frequent_predicates("dev", top=2)
    assert frequent[0] == ("c2 > 5", 3)


def test_install_preferences_pins_on_all_leaves(client):
    for _ in range(2):
        client.query("SELECT COUNT(*) FROM T WHERE c2 > 5")
    keys = client.install_preferences(top=1)
    assert keys == ["c2 > 5"]
    for leaf in client.cluster.leaves:
        entries = [
            e
            for e in leaf.index_manager._entries.values()  # noqa: SLF001
            if e.predicate_key == "c2 > 5"
        ]
        assert all(e.preferred for e in entries)


def test_format_table_layout(client):
    r = client.query("SELECT c2, COUNT(*) n FROM T GROUP BY c2 ORDER BY c2 LIMIT 3")
    text = client.format_table(r)
    lines = text.splitlines()
    assert lines[0].startswith("c2")
    assert "-+-" in lines[1]
    assert len(lines) == 5


def test_format_table_truncates(client):
    r = client.query("SELECT c1 FROM T LIMIT 30")
    text = client.format_table(r, max_rows=5)
    assert "more rows" in text


def test_frequent_columns(client):
    client.query("SELECT c1 FROM T WHERE c2 > 1 LIMIT 1")
    cols = dict(client.history.frequent_columns("dev"))
    assert "c1" in cols and "c2" in cols


def test_history_since_filter(client):
    client.query("SELECT COUNT(*) FROM T")
    later = client.cluster.sim.now + 1000.0
    assert client.history.entries("dev", since=later) == []


# -- once per statement per catalog; the master still guards ------------------


def _count_calls(monkeypatch):
    """Count ``parse``/``analyze`` calls.  Every submission path reaches
    them through ``analyze_sql``, i.e. through the analyzer module's own
    bindings."""
    import repro.sql.analyzer as analyzer_module

    calls = {"parse": 0, "analyze": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(analyzer_module, name, counting(name, getattr(analyzer_module, name)))
    return calls


def test_query_job_parses_and_analyzes_once(client, monkeypatch):
    """Once per distinct statement per catalog: the first run is a miss, a
    repeat through the client or straight to the cluster is a hit, and a
    run after drop + reload analyzes against the new table."""
    calls = _count_calls(monkeypatch)
    sql = "SELECT COUNT(*) FROM T"
    job = client.query_job(sql)
    assert job.result is not None and job.sql == sql
    assert calls == {"parse": 1, "analyze": 1}
    again = client.query_job(sql)
    client.cluster.query_job(sql, user="dev")
    assert calls == {"parse": 1, "analyze": 1}
    assert again.result.rows() == job.result.rows()
    cluster = client.cluster
    cluster.catalog.drop("T")
    columns = {k: v[:500] for k, v in cluster._test_columns.items()}
    cluster.load_table("T", CLICKS_SCHEMA, columns, storage="storage-a", block_rows=100)
    reloaded = client.query_job(sql)
    assert calls == {"parse": 2, "analyze": 2}
    assert job.result.rows() == [(3000,)] and reloaded.result.rows() == [(500,)]


@pytest.mark.parametrize(
    "sql", ["SELECT a", "SELECT a, FROM T", "SELECT COUNT(*) FROM T WHERE url = 'x", "SELEC x FROM T"]
)
def test_guided_error_is_what_check_syntax_reports(client, sql):
    report = client.check_syntax(sql)
    assert not report.ok
    with pytest.raises(ParseError) as err:
        client.query_job(sql)
    assert err.value.args[0] == report.message
    assert err.value.position == report.position
    assert err.value.text == sql


def test_guided_error_names_its_offset_once_on_client_and_gateway(client):
    from repro.gateway.gateway import SQLGateway

    sql = "SELECT a, FROM T"
    with pytest.raises(ParseError) as from_client:
        client.query(sql)
    session = SQLGateway(client.cluster).open_session("dev")
    with pytest.raises(ParseError) as from_gateway:
        session.submit(sql)
    message = str(from_client.value)
    assert message == str(from_gateway.value)
    assert message.count("at offset 10") == 1
    assert "check for a trailing comma or missing operand" in message
    assert sql not in client.cluster.catalog.statements  # parse errors are never kept


def test_entry_guard_still_checks_a_preanalyzed_statement(fresh_cluster):
    """ACL, credential lifetime and quota are checked on every admission,
    also when the statement comes out of the cache."""
    from repro.errors import QuotaExceededError
    from repro.security.acl import Quota
    from repro.sql.analyzer import analyze_sql

    sql = "SELECT COUNT(*) FROM T"
    guard = fresh_cluster.master.entry_guard
    cached = analyze_sql(sql, fresh_cluster.catalog)
    # ACL: the statement's tables are checked for the submitting user.
    fresh_cluster.create_user("intern")  # no grants at all
    with pytest.raises(AccessDeniedError):
        fresh_cluster.submit(sql, user="intern")
    assert guard.rejected == 1 and guard.admitted == 0
    # Expired credential.
    fresh_cluster.create_user("dev", admin=True)
    client = FeisuClient(fresh_cluster, "dev")
    fresh_cluster._credentials["dev"] = fresh_cluster.authority.issue(
        "dev", fresh_cluster.all_domains(), now=0.0, ttl_s=1.0
    )
    assert client.query_job(sql).result is not None
    fresh_cluster.sim.run(until=2.0)
    with pytest.raises(AccessDeniedError, match="expired"):
        client.query_job(sql)
    # Quota exhaustion.
    fresh_cluster.create_user("dev", admin=True)  # a fresh credential
    fresh_cluster.quota.set_quota("dev", Quota(max_queries_per_day=2))
    assert client.query_job(sql).result is not None  # the second of two
    with pytest.raises(QuotaExceededError):
        client.query_job(sql)
    assert guard.rejected == 3
    assert analyze_sql(sql, fresh_cluster.catalog) is cached  # every denial was a hit
