"""The five workloads: what each builds, what one pass runs, and why.

A workload object holds no state; ``build`` returns a context dict that
``run_pass`` replays.  ``--seed`` reaches the generators here and nowhere
else: the program under test only ever sees generated tables, SQL text
and log records.  (One generator is not seeded from it: the session
script of ``gateway_mt``, see there.)

Sizes and ``PASSES`` are fixed per workload, never adapted to the machine
or to ``--seconds``: a run is the same work on every box, so its cost in
ticks is comparable, and state that grows with jobs served (the ledger)
weighs the same in every run.  They are sized so that the timed passes
take 8 to 10 s on the seed box.  The one-line reason each workload exists
is recorded in ``BENCHMARK.json``; the class docstrings here say what it
is made of.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import DataType, FeisuCluster, FeisuConfig, LeafConfig, Schema
from repro.client.client import FeisuClient
from repro.errors import FeisuError, GatewayOverloadedError
from repro.gateway import GatewayConfig, TenantPolicy
from repro.gateway.session import QueryStatus
from repro.workload.generator import (
    MultiTenantConfig,
    SessionTrace,
    multi_tenant_sessions,
    scan_query_stream,
    skewed_join_dataset,
    skewed_join_queries,
)
from repro.workload.loggen import LogIngestor, generate_log_records

from ticks import Meter

_KEYWORDS = ["alpha", "bravo", "delta", "gamma", "kappa", "omega", "sigma", "theta"]


@dataclass
class Outcome:
    """One query as the harness saw it."""

    #: Names the expected answer (SQL text, or hour+slot for ingest).
    key: str
    sim_latency_s: float
    #: Kept only on verified passes; None otherwise (bounds memory).
    result: Optional[object]
    failed: bool
    #: The job's ``JobStats`` (tasks, backups, modeled bytes); None if
    #: the query never became a job.
    stats: Optional[object] = None


def _cluster(
    racks: int, nodes_per_rack: int, smartindex: bool, twin: bool, gateway=None
) -> FeisuCluster:
    """Default config except the shape; the twin is one node, no index."""
    if twin:
        racks, nodes_per_rack, smartindex, gateway = 1, 1, False, None
    return FeisuCluster(
        FeisuConfig(
            racks_per_datacenter=racks,
            nodes_per_rack=nodes_per_rack,
            leaf=LeafConfig(enable_smartindex=smartindex),
            gateway=gateway,
        )
    )


def _client_pass(
    client: FeisuClient, queries: Sequence[str], meter: Meter, keep: bool
) -> List[Outcome]:
    """Closed loop, one client: the next query waits for the last."""
    outcomes = []
    for sql in queries:
        try:
            job = meter.timed(client.query_job, sql)
        except FeisuError:
            outcomes.append(Outcome(sql, 0.0, None, True))
            continue
        outcomes.append(
            Outcome(
                sql,
                job.stats.response_time_s,
                job.result if keep else None,
                job.error is not None,
                job.stats,
            )
        )
    return outcomes


def _twin_answers(cluster: FeisuCluster, queries: Sequence[str]) -> Dict[str, object]:
    return {sql: cluster.query(sql) for sql in queries}


class _ClientWorkload:
    """A fixed list of SQL texts replayed through one ``FeisuClient``;
    subclasses supply ``build`` (which sets ``ctx["queries"]``)."""

    def run_pass(self, ctx: dict, meter: Meter, p: int, keep: bool) -> List[Outcome]:
        return _client_pass(ctx["client"], ctx["queries"], meter, keep)

    def twin(self, seed: int, smoke: bool) -> Dict[str, object]:
        ctx = self.build(seed, smoke, Meter(0), twin=True)
        return _twin_answers(ctx["cluster"], ctx["queries"])


class DrillIndex(_ClientWorkload):
    """Drill-down scans over tiny blocks with SmartIndex on.

    4 096 rows in 16 blocks of 256: a query is 16 tasks that the index
    mostly covers, so parse/analyze/plan, ``scheduler.place``, the event
    loop and ``Block.from_bytes`` header parsing are the cost and the
    operators almost none.  Predicates repeat (pool of 24, reuse 0.75),
    which is the property a plan cache or an index change needs.  Rows
    are few on purpose: the master keeps every result, and with 32 000
    rows resident memory and a third of the pass cost followed how many
    rows the seed's predicates happened to select.
    """

    name = "drill_index"
    K = 1
    PASSES = 12
    ROWS, BLOCK_ROWS, QUERIES = 4_096, 256, 150

    def build(self, seed: int, smoke: bool, meter: Meter, twin: bool = False) -> dict:
        rows = self.ROWS // 10 if smoke else self.ROWS
        ctx: dict = {}

        def synthesize():
            rng = np.random.default_rng(seed)
            ctx["columns"] = {
                "a": rng.integers(0, 1000, rows),
                "b": rng.integers(0, 1000, rows),
                "c": rng.integers(0, 1000, rows),
                "d": rng.integers(0, 1000, rows),
                "s": np.array(
                    [_KEYWORDS[i] + "-" + str(j) for i, j in
                     zip(rng.integers(0, len(_KEYWORDS), rows), rng.integers(0, 50, rows))],
                    dtype=object,
                ),
            }
            ctx["queries"] = scan_query_stream(
                "T", ["a", "b", "c", "d"], (0, 1000), self.QUERIES // (10 if smoke else 1),
                seed=seed, contains_column="s", contains_values=_KEYWORDS,
                pool_size=24, reuse_probability=0.75,
            )

        def construct():
            ctx["cluster"] = _cluster(2, 4, True, twin)

        def load():
            schema = Schema.of(
                a=DataType.INT64, b=DataType.INT64, c=DataType.INT64,
                d=DataType.INT64, s=DataType.STRING,
            )
            ctx["cluster"].load_table(
                "T", schema, ctx.pop("columns"),
                block_rows=rows if twin else self.BLOCK_ROWS // (10 if smoke else 1),
            )
            ctx["client"] = FeisuClient(ctx["cluster"], "analyst")

        for step in (synthesize, construct, load):
            meter.timed(step)
        return ctx


class ScanCold(_ClientWorkload):
    """Large cold scans: no index, no cache, literals distinct in a pass.

    320 000 rows x 5 columns in 4 blocks; half the queries filter and
    group (COUNT/SUM), half are conjunctive with a CONTAINS (COUNT/AVG).
    Storage read, ``from_bytes``, ``decode`` and the numpy operators are
    ~95 % of the pass; nothing the program caches today helps, so this is
    the bypass case for plan/index caching and the showcase for resident
    decoded columns.  The data is larger than any cache the program has.
    """

    name = "scan_cold"
    K = 8
    PASSES = 12
    ROWS, BLOCKS, QUERIES = 320_000, 4, 16

    def build(self, seed: int, smoke: bool, meter: Meter, twin: bool = False) -> dict:
        rows = self.ROWS // 10 if smoke else self.ROWS
        nq = self.QUERIES // 2
        ctx: dict = {}

        def synthesize():
            rng = np.random.default_rng(seed)
            ctx["columns"] = {
                "a": rng.integers(0, 1_000_000, rows),
                "b": rng.integers(0, 1_000_000, rows),
                "g": rng.integers(0, 16, rows),
                "x": rng.random(rows) * 100.0,
                "s": np.array(
                    [f"{_KEYWORDS[i]}{j:02d}" for i in range(len(_KEYWORDS)) for j in range(8)],
                    dtype=object,
                )[rng.integers(0, 64, rows)],
            }
            # Stratified literals: every seed draws one value per slice
            # of the domain, so selectivities are spread alike for every
            # seed and distinct within a pass.
            lits = [int((i + rng.random()) * 1_000_000 / nq) for i in range(nq)]
            group = [
                f"SELECT g, COUNT(*) AS n, SUM(x) AS sx FROM T WHERE a < {v} "
                f"GROUP BY g ORDER BY g"
                for v in lits
            ]
            conj = [
                f"SELECT COUNT(*) AS n, AVG(x) AS ax FROM T "
                f"WHERE b > {v} AND s CONTAINS '{_KEYWORDS[i % len(_KEYWORDS)]}'"
                for i, v in enumerate(lits)
            ]
            queries = group + conj
            random.Random(seed).shuffle(queries)
            ctx["queries"] = queries

        def construct():
            ctx["cluster"] = _cluster(2, 4, False, twin)

        def load():
            schema = Schema.of(
                a=DataType.INT64, b=DataType.INT64, g=DataType.INT64,
                x=DataType.FLOAT64, s=DataType.STRING,
            )
            ctx["cluster"].load_table(
                "T", schema, ctx.pop("columns"),
                block_rows=rows if twin else rows // self.BLOCKS,
            )
            ctx["client"] = FeisuClient(ctx["cluster"], "analyst")

        for step in (synthesize, construct, load):
            meter.timed(step)
        return ctx


class JoinGroupby(_ClientWorkload):
    """The paper's heterogeneous-source join: fact on storage-a,
    dimension on storage-b, 16 leaves, skewed key, group-by on top.

    Broadcast fetch, ``hash_join``, ``partial_aggregate``, stem merge and
    ``finalize`` dominate; the scans are small.
    """

    name = "join_groupby"
    K = 4
    PASSES = 12
    ROWS, BLOCK_ROWS, QUERIES = 48_000, 6_000, 40

    def build(self, seed: int, smoke: bool, meter: Meter, twin: bool = False) -> dict:
        rows = self.ROWS // 10 if smoke else self.ROWS
        ctx: dict = {}

        def synthesize():
            ctx["fact"], ctx["dim"] = skewed_join_dataset(rows, seed=seed)
            ctx["queries"] = skewed_join_queries(
                self.QUERIES // (4 if smoke else 1), seed=seed
            )

        def construct():
            ctx["cluster"] = _cluster(2, 8, False, twin)

        def load():
            cluster = ctx["cluster"]
            cluster.load_table(
                "T",
                Schema.of(k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64,
                          note=DataType.STRING),
                ctx.pop("fact"), storage="storage-a", scale_factor=1200.0,
                block_rows=rows if twin else self.BLOCK_ROWS // (10 if smoke else 1),
            )
            cluster.load_table(
                "D", Schema.of(k=DataType.INT64, label=DataType.STRING),
                ctx.pop("dim"), storage="storage-b",
            )
            ctx["client"] = FeisuClient(cluster, "analyst")

        for step in (synthesize, construct, load):
            meter.timed(step)
        return ctx


class GatewayMT:
    """Saturated multi-tenant serving through the SQL gateway.

    The only workload with concurrent jobs in the master: admission,
    deficit round robin, ledger checkpoints and the per-tenant rescans
    are a visible share because each query is cheap (4 096 rows).  160
    sessions (346 queries) of 8 tenants, Zipf 1.1, against 4 slots.
    """

    name = "gateway_mt"
    #: One tick per CHUNK simulator steps (the harness owns the drive loop).
    K = 1
    CHUNK = 256
    PASSES = 12
    ROWS, BLOCK_ROWS, SESSIONS, TENANTS = 4_096, 1_024, 160, 8
    SCRIPT_SEED = 52

    def build(self, seed: int, smoke: bool, meter: Meter, twin: bool = False) -> dict:
        rows = self.ROWS // 10 if smoke else self.ROWS
        ctx: dict = {}

        def synthesize():
            rng = np.random.default_rng(seed)
            ctx["columns"] = {
                "c1": rng.integers(0, 100, rows),
                "c2": rng.integers(0, 10, rows),
                "c3": rng.integers(0, 1000, rows),
                "clicks": rng.random(rows) * 100.0,
            }

        def construct():
            ctx["cluster"] = _cluster(
                2, 4, True, twin,
                gateway=GatewayConfig(
                    total_slots=4,
                    default_policy=TenantPolicy(max_concurrent=4, max_queued=4096),
                ),
            )

        def load():
            cluster = ctx["cluster"]
            schema = Schema.of(
                c1=DataType.INT64, c2=DataType.INT64, c3=DataType.INT64,
                clicks=DataType.FLOAT64,
            )
            cluster.load_table(
                "T", schema, ctx.pop("columns"),
                block_rows=rows if twin else self.BLOCK_ROWS // (10 if smoke else 1),
            )
            ctx["traces"] = self._sessions(schema, self.SESSIONS // (10 if smoke else 1))
            if not twin:
                for user in sorted({t.user for t in ctx["traces"]}):
                    cluster.create_user(user, domains=["*"])
                    cluster.acl.grant(user, "T")

        for step in (synthesize, construct, load):
            meter.timed(step)
        return ctx

    def _sessions(self, schema: Schema, count: int) -> List[SessionTrace]:
        """The session script: who asks what, and when.  The same for
        every seed; the seed draws the table it runs against.

        All sessions open inside 0.1 simulated s against 4 slots and
        barely think, so every tenant backlogs and fair share does the
        ordering.  (Near critical load instead, latency swings 19 % from
        seed to seed.)  A backlog's latencies are positions in a queue,
        and any change of input reorders it.  Over ten seeds, (Q3 - Q1) /
        median of ``sim_latency_p50_s`` / ``p95_s`` was 0.06 / 0.09 with
        the script drawn from the seed (and the query count moved by
        9 %); 0.10 / 0.045 with tenant shares, session lengths and the
        aggregating share held fixed and only the SQL drawn; 0.036 /
        0.026 with this fixed script, which is what the table's rows
        alone do.
        """
        return multi_tenant_sessions(
            "T", schema,
            MultiTenantConfig(
                num_tenants=self.TENANTS, num_sessions=count,
                zipf_exponent=1.1, queries_per_session=2.0,
                think_time_s=0.05, open_window_s=0.1, seed=self.SCRIPT_SEED,
            ),
            value_ranges={"c1": (0, 100), "c2": (0, 10), "c3": (0, 1000), "clicks": (0, 100)},
        )

    def run_pass(self, ctx: dict, meter: Meter, p: int, keep: bool) -> List[Outcome]:
        """Open loop on the simulated clock: opens and submits are
        scheduled at their trace times whatever the progress; in real
        time the whole batch is drained as fast as the program goes."""
        gateway = ctx["cluster"].gateway
        sim = ctx["cluster"].sim
        traces = ctx["traces"]
        start = sim.now
        # Work still owed: opens and submits not yet fired, plus admitted
        # queries not yet resolved.  Counted here, on callbacks, so the
        # drive loop costs the program nothing per step.
        owed = [len(traces) + sum(len(t.queries) for t in traces)]
        handles, sessions, outcomes = [], [], []

        def resolved(_event):
            owed[0] -= 1

        def submit(session, sql):
            try:
                handle = session.submit(sql)
            except GatewayOverloadedError:
                owed[0] -= 1
                outcomes.append(Outcome(sql, 0.0, None, True))
                return
            handles.append(handle)
            handle.done.add_callback(resolved)

        def open_session(trace):
            owed[0] -= 1
            session = gateway.open_session(trace.user, tenant=trace.tenant)
            sessions.append(session)
            for tq in trace.queries:
                sim.schedule(max(0.0, tq.at_s - (sim.now - start)), submit, session, tq.sql)

        def schedule_all():
            for trace in traces:
                sim.schedule(trace.opens_at_s, open_session, trace)

        def drive() -> bool:
            for _ in range(self.CHUNK):
                if not owed[0]:
                    return True
                if not sim.step():
                    raise FeisuError("gateway_mt: work pending but no events queued")
            return False

        meter.timed(schedule_all)
        while not meter.timed(drive):
            pass
        for session in sessions:
            session.close()
        for h in handles:
            ok = h.status is QueryStatus.SUCCEEDED
            outcomes.append(
                Outcome(
                    h.sql, h.total_s, h.job.result if (keep and ok) else None, not ok,
                    h.job.stats if h.job is not None else None,
                )
            )
        ctx["last_gateway_pass"] = (handles, start, sim.now)
        return outcomes

    def twin(self, seed: int, smoke: bool) -> Dict[str, object]:
        ctx = self.build(seed, smoke, Meter(0), twin=True)
        distinct = {tq.sql for t in ctx["traces"] for tq in t.queries}
        return _twin_answers(ctx["cluster"], sorted(distinct))


class IngestQuery:
    """Ingest and query interleaved on node-local storage.

    Each pass ingests six hours of logs (48 batches) into a fresh table
    and runs four queries after every hour, so every block is flattened,
    encoded, written and then read for the first time inside the pass.
    ``qps_norm`` counts the 24 queries; the pass cost includes ingestion,
    so a read-side gain bought with write-side cost, invalidation work or
    stale answers shows here.
    """

    name = "ingest_query"
    K = 2
    PASSES = 12
    HOURS, RECORDS = 6, 400

    def build(self, seed: int, smoke: bool, meter: Meter, twin: bool = False) -> dict:
        ctx: dict = {}
        per_node = self.RECORDS // 10 if smoke else self.RECORDS

        def synthesize():
            rng = random.Random(seed)
            # Batch sizes wobble by 5 % with the seed, as producers' do.
            ctx["batches"] = [
                [
                    generate_log_records(
                        per_node + rng.randint(-per_node // 20, per_node // 20), idx, hour, seed
                    )
                    for idx in range(8)
                ]
                for hour in range(self.HOURS)
            ]
            # Thresholds spread over the latency distribution (mean 40 ms),
            # jittered by the seed.
            ctx["lat"] = [round(15.0 * (h + 1) + rng.random() * 10.0, 3)
                          for h in range(self.HOURS)]
            ctx["page"] = [f"/p{rng.randrange(40)}" for _ in range(self.HOURS)]

        def construct():
            ctx["cluster"] = _cluster(2, 4, True, twin)
            ctx["client"] = FeisuClient(ctx["cluster"], "analyst")

        for step in (synthesize, construct):
            meter.timed(step)
        return ctx

    @staticmethod
    def _queries(ctx: dict, table: str, hour: int) -> List[str]:
        return [
            f"SELECT action, COUNT(*) AS n, AVG(latency_ms) AS l FROM {table} "
            f"GROUP BY action ORDER BY action",
            f"SELECT COUNT(*) AS n FROM {table} "
            f"WHERE request.status = 200 AND latency_ms > {ctx['lat'][hour]}",
            f"SELECT event_id, latency_ms FROM {table} "
            f"WHERE latency_ms > 150 AND hour = {hour}",
            f"SELECT COUNT(*) AS n, SUM(latency_ms) AS l FROM {table} "
            f"WHERE request.page = '{ctx['page'][hour]}'",
        ]

    def run_pass(self, ctx: dict, meter: Meter, p: int, keep: bool) -> List[Outcome]:
        """A fresh table per pass: every block is ingested, then read for
        the first time, inside the pass."""
        cluster = ctx["cluster"]
        table = f"logs_{p}"
        ingestor = LogIngestor(cluster, table_name=table)
        outcomes = []
        for hour, batch in enumerate(ctx["batches"]):
            nodes = cluster.nodes
            for idx, records in enumerate(batch):
                # The twin has one node: all eight producers land on it.
                meter.timed(ingestor.ingest, nodes[idx % len(nodes)], records)
            for slot, sql in enumerate(self._queries(ctx, table, hour)):
                got = _client_pass(ctx["client"], [sql], meter, keep)[0]
                got.key = f"h{hour}.q{slot}"
                outcomes.append(got)
        return outcomes

    def twin(self, seed: int, smoke: bool) -> Dict[str, object]:
        ctx = self.build(seed, smoke, Meter(0), twin=True)
        return {o.key: o.result for o in self.run_pass(ctx, Meter(0), 0, keep=True)}


WORKLOADS = {w.name: w for w in (DrillIndex(), ScanCold(), JoinGroupby(), GatewayMT(), IngestQuery())}
