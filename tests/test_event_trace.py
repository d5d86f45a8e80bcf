"""Event-trace digests: the detector for a moved, added or dropped event.

Small instances of the five end-to-end shapes (an indexed drill-down, a
cold scan, a broadcast join with GROUP BY, a multi-tenant gateway run and
an ingest-then-query run) plus a drill-down under a seeded fault plan run
while every entry the kernel pops off its timer heap or its due-now lane
is recorded as ``(time, seq, callback kind)``.  The callback kind is the
qualified name of the callback, plus the generator's for a
``Process._step``, so an event
that moves in time, changes place in the queue, is added, is dropped or
wakes a different body changes the digest.

``tests/golden/event_trace_digests.json`` holds one SHA-256 per case.  A
change meant only to make the control plane *cheaper* must pass against
it unchanged; regenerate it (``python tests/test_event_trace.py
--regenerate``) only in a change that says it moves the model.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import partial

import numpy as np
import pytest

import repro.sim.events as events
from repro import DataType, FeisuCluster, FeisuConfig, LeafConfig, Schema
from repro.client.client import FeisuClient
from repro.faults.plan import FaultPlan, MessageDelay, MessageDrop, MessageDuplicate
from repro.gateway import GatewayConfig, TenantPolicy
from repro.sim.netmodel import TrafficClass
from repro.workload.generator import (
    MultiTenantConfig,
    multi_tenant_sessions,
    scan_query_stream,
    skewed_join_dataset,
    skewed_join_queries,
)
from repro.workload.loggen import LogIngestor, generate_log_records

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "event_trace_digests.json")

_KEYWORDS = ["alpha", "bravo", "delta", "gamma"]


def callback_kind(fn) -> str:
    """What a queued callback is, independent of the object it is bound to."""
    if isinstance(fn, partial):
        return f"partial({callback_kind(fn.func)})"
    kind = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, events.Process) and kind == "Process._step":
        kind += ":" + owner._gen.__qualname__  # noqa: SLF001
    return kind


class TraceRecorder:
    """Hashes every popped queue entry while installed over ``heappop``
    and ``popleft`` (the timer heap's pop and the due-now lane's)."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.pops = 0

    def __enter__(self) -> "TraceRecorder":
        sha = self.sha

        def recording(real):
            def pop(container):
                entry = real(container)
                t, seq, fn, _ = entry
                sha.update(f"{t!r} {seq} {callback_kind(fn)}\n".encode())
                self.pops += 1
                return entry

            return pop

        self._real = events.heappop, events.popleft
        events.heappop, events.popleft = (recording(real) for real in self._real)
        return self

    def __exit__(self, *exc) -> None:
        events.heappop, events.popleft = self._real

    def summary(self) -> dict:
        return {"pops": self.pops, "sha256": self.sha.hexdigest()}


def _cluster(smartindex: bool = True, gateway=None) -> FeisuCluster:
    return FeisuCluster(
        FeisuConfig(
            racks_per_datacenter=2,
            nodes_per_rack=4,
            leaf=LeafConfig(enable_smartindex=smartindex),
            gateway=gateway,
        )
    )


def _drill_table(cluster: FeisuCluster, rows: int = 1024, block_rows: int = 128) -> None:
    rng = np.random.default_rng(5)
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, b=DataType.INT64, c=DataType.INT64, s=DataType.STRING),
        {
            "a": rng.integers(0, 1000, rows),
            "b": rng.integers(0, 1000, rows),
            "c": rng.integers(0, 1000, rows),
            "s": np.array(
                [_KEYWORDS[i] + "-" + str(j) for i, j in
                 zip(rng.integers(0, len(_KEYWORDS), rows), rng.integers(0, 20, rows))],
                dtype=object,
            ),
        },
        block_rows=block_rows,
    )


def _drill_queries(count: int) -> list:
    return scan_query_stream(
        "T", ["a", "b", "c"], (0, 1000), count, seed=5,
        contains_column="s", contains_values=_KEYWORDS, pool_size=6, reuse_probability=0.75,
    )


def _run_client(cluster: FeisuCluster, queries) -> None:
    client = FeisuClient(cluster, "analyst")
    for sql in queries:
        client.query_job(sql)


def drill_index() -> TraceRecorder:
    cluster = _cluster()
    _drill_table(cluster)
    with TraceRecorder() as rec:
        _run_client(cluster, _drill_queries(12))
    return rec


def scan_cold() -> TraceRecorder:
    cluster = _cluster(smartindex=False)
    rows = 8_000
    rng = np.random.default_rng(6)
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, g=DataType.INT64, x=DataType.FLOAT64, s=DataType.STRING),
        {
            "a": rng.integers(0, 1_000_000, rows),
            "g": rng.integers(0, 16, rows),
            "x": rng.random(rows) * 100.0,
            "s": np.array([f"{k}{j:02d}" for k in _KEYWORDS for j in range(8)], dtype=object)[
                rng.integers(0, 32, rows)
            ],
        },
        block_rows=rows // 4,
    )
    queries = []
    for i, v in enumerate((120_000, 480_000, 730_000)):
        queries.append(
            f"SELECT g, COUNT(*) AS n, SUM(x) AS sx FROM T WHERE a < {v} GROUP BY g ORDER BY g"
        )
        queries.append(
            f"SELECT COUNT(*) AS n, AVG(x) AS ax FROM T "
            f"WHERE a > {v} AND s CONTAINS '{_KEYWORDS[i]}'"
        )
    with TraceRecorder() as rec:
        _run_client(cluster, queries)
    return rec


def join_groupby() -> TraceRecorder:
    cluster = _cluster(smartindex=False)
    fact, dim = skewed_join_dataset(2_400, seed=8)
    cluster.load_table(
        "T",
        Schema.of(k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64, note=DataType.STRING),
        fact, storage="storage-a", scale_factor=1200.0, block_rows=300,
    )
    cluster.load_table(
        "D", Schema.of(k=DataType.INT64, label=DataType.STRING), dim, storage="storage-b",
    )
    with TraceRecorder() as rec:
        _run_client(cluster, skewed_join_queries(6, seed=8))
    return rec


def gateway_mt() -> TraceRecorder:
    cluster = _cluster(
        gateway=GatewayConfig(
            total_slots=4, default_policy=TenantPolicy(max_concurrent=4, max_queued=4096),
        )
    )
    rows = 1024
    rng = np.random.default_rng(9)
    schema = Schema.of(
        c1=DataType.INT64, c2=DataType.INT64, c3=DataType.INT64, clicks=DataType.FLOAT64,
    )
    cluster.load_table(
        "T", schema,
        {
            "c1": rng.integers(0, 100, rows),
            "c2": rng.integers(0, 10, rows),
            "c3": rng.integers(0, 1000, rows),
            "clicks": rng.random(rows) * 100.0,
        },
        block_rows=256,
    )
    traces = multi_tenant_sessions(
        "T", schema,
        MultiTenantConfig(
            num_tenants=4, num_sessions=16, zipf_exponent=1.1, queries_per_session=2.0,
            think_time_s=0.05, open_window_s=0.1, seed=52,
        ),
        value_ranges={"c1": (0, 100), "c2": (0, 10), "c3": (0, 1000), "clicks": (0, 100)},
    )
    for user in sorted({t.user for t in traces}):
        cluster.create_user(user, domains=["*"])
        cluster.acl.grant(user, "T")
    sim, gateway = cluster.sim, cluster.gateway
    owed = [len(traces) + sum(len(t.queries) for t in traces)]

    def resolved(_event) -> None:
        owed[0] -= 1

    def submit(session, sql) -> None:
        session.submit(sql).done.add_callback(resolved)

    def open_session(trace) -> None:
        owed[0] -= 1
        session = gateway.open_session(trace.user, tenant=trace.tenant)
        for tq in trace.queries:
            sim.schedule(tq.at_s, submit, session, tq.sql)

    with TraceRecorder() as rec:
        for trace in traces:
            sim.schedule(trace.opens_at_s, open_session, trace)
        while owed[0]:
            assert sim.step(), "work pending but no events queued"
    return rec


def ingest_query() -> TraceRecorder:
    cluster = _cluster()
    client = FeisuClient(cluster, "analyst")
    ingestor = LogIngestor(cluster, table_name="logs")
    with TraceRecorder() as rec:
        for hour in range(2):
            for idx, node in enumerate(cluster.nodes):
                ingestor.ingest(node, generate_log_records(40, idx, hour, 3))
            for sql in (
                "SELECT action, COUNT(*) AS n, AVG(latency_ms) AS l FROM logs "
                "GROUP BY action ORDER BY action",
                "SELECT COUNT(*) AS n FROM logs WHERE request.status = 200 AND latency_ms > 30",
                f"SELECT event_id, latency_ms FROM logs WHERE latency_ms > 150 AND hour = {hour}",
                "SELECT COUNT(*) AS n FROM logs WHERE request.page = '/p3'",
            ):
                client.query_job(sql)
    return rec


def drill_faulty() -> TraceRecorder:
    cluster = _cluster()
    _drill_table(cluster)
    cluster.install_faults(
        FaultPlan(rpc_timeout_s=0.5).add(
            MessageDrop(probability=0.1, cls=TrafficClass.CONTROL),
            MessageDelay(extra_s=0.02, probability=0.3),
            MessageDuplicate(probability=0.2),
        ),
        seed=17,
    )
    with TraceRecorder() as rec:
        _run_client(cluster, _drill_queries(8))
        cluster.sim.run(until=cluster.sim.now + 6.0)
    return rec


CASES = {
    fn.__name__: fn
    for fn in (drill_index, scan_cold, join_groupby, gateway_mt, ingest_query, drill_faulty)
}


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_trace_matches_golden(case):
    expected = _golden()[case]
    actual = CASES[case]().summary()
    assert actual["pops"] == expected["pops"], (
        f"{case}: {actual['pops']} events popped, {expected['pops']} at recording"
    )
    assert actual["sha256"] == expected["sha256"], (
        f"{case}: same event count, but an event moved, changed place or woke another body"
    )


def test_callback_kind_names_the_generator_of_a_process():
    sim = events.Simulator()

    def body():
        yield sim.timeout(1.0)

    proc = sim.process(body())
    assert callback_kind(proc._step) == "Process._step:test_callback_kind_names_the_generator_of_a_process.<locals>.body"  # noqa: SLF001,E501
    assert callback_kind(partial(proc.succeed)) == "partial(Event.succeed)"


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/test_event_trace.py --regenerate")
    digests = {name: CASES[name]().summary() for name in sorted(CASES)}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
