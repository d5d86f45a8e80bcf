"""Query-workload generator with tunable locality and similarity (§IV-A).

The paper's two-month trace analysis found that, within short windows,
(1) a small set of columns is repeatedly accessed (*data locality*) and
(2) many queries share exact predicates (*query similarity*), because
"human users usually explore the data in a trial-and-error approach ...
first issue an aggregation query without query predicates and then add
predicates one by one based on the query results".

:class:`WorkloadGenerator` reproduces that generating process directly:
users run drill-down *sessions*; a session fixes a small column set and a
predicate pool, issues an initial aggregate, then refines it predicate by
predicate, re-using pool predicates with high probability.  Knobs expose
how strong both effects are, so the Fig 4/5 benches can sweep them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.columnar.schema import DataType, Schema

#: Comparison operators eligible for numeric predicate synthesis.
_NUM_OPS = (">", ">=", "<", "<=", "=")
#: Size of the per-user predicate pool sessions draw from.
PREDICATE_POOL_SIZE = 8
#: Columns a drill-down session works with (data locality strength:
#: smaller = stronger locality).
COLUMNS_PER_SESSION = 3


@dataclass(frozen=True)
class TimedQuery:
    """One generated query with its submission time and author."""

    at_s: float
    user: str
    sql: str


@dataclass(frozen=True)
class SessionTrace:
    """One gateway session: who opens it, when, and its query stream.

    ``queries`` carry trace times, not offsets from the open (simulated
    seconds counted from the driver's start), all at or after
    ``opens_at_s``; the driver replays them against an open
    :class:`~repro.gateway.session.GatewaySession`.
    """

    tenant: str
    user: str
    opens_at_s: float
    queries: Tuple[TimedQuery, ...]


def user_sessions(queries: Iterable[TimedQuery]) -> List[SessionTrace]:
    """A timed query stream as one session per user, sorted by open time.

    Each user is its own tenant and opens its session at its first
    query; :func:`~repro.gateway.driver.run_sessions` then submits every
    query at its own time, whether or not the user's previous one has
    finished.
    """
    by_user: Dict[str, List[TimedQuery]] = {}
    for query in sorted(queries, key=lambda q: q.at_s):
        by_user.setdefault(query.user, []).append(query)
    return [
        SessionTrace(tenant=user, user=user, opens_at_s=qs[0].at_s, queries=tuple(qs))
        for user, qs in by_user.items()
    ]


@dataclass
class MultiTenantConfig:
    """Knobs for the concurrent multi-tenant session workload (S52).

    Tenant popularity is Zipf-distributed: session ``i`` belongs to
    tenant rank ``r`` with probability ∝ ``1 / (r+1) ** zipf_exponent``,
    reproducing the production skew where a couple of business units
    dominate the gateway while a long tail trickles.
    """

    num_tenants: int = 8
    num_sessions: int = 1000
    #: Zipf popularity exponent across tenant ranks (0 = uniform).
    zipf_exponent: float = 1.1
    #: Mean queries per session (Gaussian around this, min 1).
    queries_per_session: float = 2.0
    #: Mean think time between one session's consecutive queries.
    think_time_s: float = 2.0
    #: Sessions open uniformly over this window — thousands of sessions
    #: arriving within a minute is what saturates admission control.
    open_window_s: float = 60.0
    aggregate_fraction: float = 0.7
    seed: int = 42


@dataclass
class WorkloadConfig:
    """Knobs controlling locality/similarity strength."""

    num_users: int = 12
    #: Mean queries per drill-down session.
    session_length: int = 6
    #: Probability a new predicate is drawn from the pool rather than
    #: freshly randomized (query similarity strength).
    reuse_probability: float = 0.8
    #: Mean seconds between consecutive queries of one user.
    think_time_s: float = 300.0
    #: Fraction of sessions that are pure scans (vs aggregations) —
    #: Fig 8 shows scans+aggregations ≥ 99 % of production queries.
    aggregate_fraction: float = 0.7
    seed: int = 42


class WorkloadGenerator:
    """Generates timed SQL streams over one table's schema."""

    def __init__(
        self,
        table: str,
        schema: Schema,
        config: Optional[WorkloadConfig] = None,
        value_ranges: Optional[Dict[str, Tuple[float, float]]] = None,
        contains_values: Optional[Dict[str, List[str]]] = None,
    ):
        self.table = table
        self.schema = schema
        self.config = config or WorkloadConfig()
        #: The one stream every draw comes from, so a trace is a function
        #: of the seed alone; :func:`multi_tenant_sessions` takes its
        #: tenant, open-time and length draws from it too.
        self.rng = random.Random(self.config.seed)
        #: Numeric columns eligible for comparison predicates.
        self._numeric = [f.name for f in schema if f.dtype.is_numeric]
        strings = [f.name for f in schema if f.dtype is DataType.STRING]
        # Users share a biased column universe: hot columns first, a cold
        # tail behind them (the head repeats often; the tail rarely).
        self._hot_columns = (self._numeric + strings)[: max(4, COLUMNS_PER_SESSION * 5)]
        self._ranges = value_ranges or {}
        self._contains = contains_values or {}
        self._pools: Dict[str, List[str]] = {}

    # -- predicate synthesis --------------------------------------------------

    def _random_predicate(self, columns: Sequence[str]) -> str:
        rng = self.rng
        candidates = [c for c in columns if c in self._numeric or c in self._contains]
        column = rng.choice(candidates if candidates else list(columns))
        if column in self._contains and (column not in self._numeric or rng.random() < 0.3):
            needle = rng.choice(self._contains[column])
            return f"{column} CONTAINS '{needle}'"
        lo, hi = self._ranges.get(column, (0, 100))
        value = rng.randint(int(lo), max(int(lo), int(hi)))
        op = rng.choice(_NUM_OPS)
        return f"{column} {op} {value}"

    def _pool_for(self, user: str, columns: Sequence[str]) -> List[str]:
        pool = self._pools.get(user)
        if pool is None:
            pool = [
                self._random_predicate(columns)
                for _ in range(PREDICATE_POOL_SIZE)
            ]
            self._pools[user] = pool
        return pool

    def _next_predicate(self, user: str, columns: Sequence[str]) -> str:
        rng = self.rng
        pool = self._pool_for(user, columns)
        if rng.random() < self.config.reuse_probability and pool:
            return rng.choice(pool)
        pred = self._random_predicate(columns)
        # Fresh predicates enter the pool, displacing the oldest: the
        # "hot set" drifts slowly, as real exploration does.
        pool.pop(0)
        pool.append(pred)
        return pred

    # -- query synthesis ----------------------------------------------------------

    def _session_columns(self) -> List[str]:
        """Pick a session's working set, biased toward hot columns.

        Weighted sampling without replacement with geometrically decaying
        weights: the head of the column universe is hot (repeats across
        sessions quickly), the tail is cold (repeats only over long
        spans) — which is what gives Fig 4 its growth with span.
        """
        k = min(COLUMNS_PER_SESSION, len(self._hot_columns))
        pool = list(self._hot_columns)
        chosen: List[str] = []
        while len(chosen) < k:
            weights = [0.6**i for i in range(len(pool))]
            pick = self.rng.choices(range(len(pool)), weights=weights, k=1)[0]
            chosen.append(pool.pop(pick))
        return chosen

    def _select_clause(self, columns: Sequence[str], aggregate: bool) -> str:
        rng = self.rng
        if not aggregate:
            return ", ".join(columns[: max(1, len(columns) - 1)])
        numeric = [c for c in columns if c in self._numeric]
        choice = rng.random()
        if choice < 0.5 or not numeric:
            return "COUNT(*)"
        agg = rng.choice(["SUM", "AVG", "MAX", "MIN"])
        return f"{agg}({rng.choice(numeric)})"

    def drill_down(
        self,
        user: str,
        start_s: float,
        length: Callable[[], int],
        think_time_s: float,
        until_s: float = math.inf,
    ) -> Tuple[List[TimedQuery], float]:
        """One drill-down session of ``user``, its first query at ``start_s``.

        The session fixes its columns and whether it aggregates, draws
        its query count with ``length()``, then issues an unfiltered
        query and refines it one predicate at a time, an exponential
        think gap of mean ``think_time_s`` after each query.  No query
        is issued at or after ``until_s``.  Returns the queries and the
        time the session's last gap ends.
        """
        rng = self.rng
        columns = self._session_columns()
        aggregate = rng.random() < self.config.aggregate_fraction
        t = start_s
        predicates: List[str] = []
        queries: List[TimedQuery] = []
        for step in range(length()):
            if t >= until_s:
                break
            if step > 0:
                predicates.append(self._next_predicate(user, columns))
            sql = f"SELECT {self._select_clause(columns, aggregate)} FROM {self.table}"
            if predicates:
                sql += " WHERE " + " AND ".join(f"({p})" for p in predicates)
            queries.append(TimedQuery(at_s=t, user=user, sql=sql))
            t += rng.expovariate(1.0 / think_time_s)
        return queries, t

    def generate(self, duration_s: float) -> List[TimedQuery]:
        """Emit the merged, time-ordered query stream of all users."""
        rng = self.rng
        cfg = self.config

        def length() -> int:
            return max(1, int(rng.gauss(cfg.session_length, 1.5)))

        out: List[TimedQuery] = []
        for u in range(cfg.num_users):
            user = f"user{u}"
            t = rng.uniform(0, cfg.think_time_s)
            while t < duration_s:
                queries, t = self.drill_down(user, t, length, cfg.think_time_s, duration_s)
                out.extend(queries)
                t += rng.expovariate(1.0 / (cfg.think_time_s * 2))
        out.sort(key=lambda q: q.at_s)
        return out


def multi_tenant_sessions(
    table: str,
    schema: Schema,
    config: Optional[MultiTenantConfig] = None,
    value_ranges: Optional[Dict[str, Tuple[float, float]]] = None,
    contains_values: Optional[Dict[str, List[str]]] = None,
) -> List[SessionTrace]:
    """Generate Zipf-skewed concurrent session traces for the gateway.

    Each trace is one session of one tenant's shared service account
    (``<tenant>-svc``); its queries are one
    :meth:`WorkloadGenerator.drill_down` so locality/similarity match the
    paper's trace profile.  Returned traces are sorted by open time.
    """
    cfg = config or MultiTenantConfig()
    gen = WorkloadGenerator(
        table,
        schema,
        WorkloadConfig(aggregate_fraction=cfg.aggregate_fraction, seed=cfg.seed),
        value_ranges=value_ranges,
        contains_values=contains_values,
    )
    rng = gen.rng

    def length() -> int:
        return max(1, round(rng.gauss(cfg.queries_per_session, 1.0)))

    tenants = [f"tenant{r:02d}" for r in range(cfg.num_tenants)]
    weights = [1.0 / (r + 1) ** cfg.zipf_exponent for r in range(cfg.num_tenants)]
    traces: List[SessionTrace] = []
    for _ in range(cfg.num_sessions):
        tenant = rng.choices(tenants, weights=weights, k=1)[0]
        user = f"{tenant}-svc"
        opens_at = rng.uniform(0.0, cfg.open_window_s)
        queries, _ = gen.drill_down(user, opens_at, length, cfg.think_time_s)
        traces.append(
            SessionTrace(
                tenant=tenant, user=user, opens_at_s=opens_at, queries=tuple(queries)
            )
        )
    traces.sort(key=lambda s: s.opens_at_s)
    return traces


def scan_query_stream(
    table: str,
    columns: Sequence[str],
    value_range: Tuple[int, int],
    count: int,
    seed: int = 7,
    contains_column: Optional[str] = None,
    contains_values: Optional[Sequence[str]] = None,
    pool_size: int = 24,
    reuse_probability: float = 0.75,
) -> List[str]:
    """The §VI-B scan workload::

        SELECT a FROM T WHERE b OP1 v1 [[AND|OR] c OP2 v2]

    with randomly generated parameters drawn from a finite pool, so that
    predicate repetition matches production behaviour (high similarity).
    """
    rng = random.Random(seed)
    lo, hi = value_range

    def fresh_predicate() -> str:
        if contains_column and contains_values and rng.random() < 0.25:
            return f"{contains_column} CONTAINS '{rng.choice(list(contains_values))}'"
        column = rng.choice(list(columns[1:]) or list(columns))
        return f"{column} {rng.choice(_NUM_OPS)} {rng.randint(lo, hi)}"

    pool = [fresh_predicate() for _ in range(pool_size)]
    queries = []
    for _ in range(count):
        def draw() -> str:
            if rng.random() < reuse_probability:
                return rng.choice(pool)
            pred = fresh_predicate()
            pool[rng.randrange(len(pool))] = pred
            return pred

        preds = [draw()]
        roll = rng.random()
        if roll < 0.4:
            preds.append(draw())
            conjunction = "AND" if rng.random() < 0.7 else "OR"
        sql = f"SELECT {columns[0]} FROM {table} WHERE ({preds[0]})"
        if len(preds) == 2:
            sql = (
                f"SELECT {columns[0]} FROM {table} "
                f"WHERE ({preds[0]}) {conjunction} ({preds[1]})"
            )
        queries.append(sql)
    return queries


# -- skewed-join misestimate workload (S53) -----------------------------------


def skewed_join_dataset(
    rows: int,
    seed: int = 0,
    hot_share: float = 0.5,
    num_groups: int = 8,
    match_share: float = 0.6,
) -> "Tuple[Dict[str, object], Dict[str, object]]":
    """Fact/dimension columns the static planner misestimates.

    Returns ``(fact, dim)`` column dicts for a fact table with a Zipf-like
    hot join key (``hot_share`` of all rows land on key 0, the rest spread
    uniformly — the skew that makes one partition a straggler) and a
    ``note`` string column where ``match_share`` of rows contain the
    needle ``'hit'``, far above the planner's CONTAINS default
    selectivity.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n_hot = int(rows * hot_share)
    keys = np.concatenate(
        [
            np.zeros(n_hot, dtype=np.int64),
            rng.integers(1, max(2, num_groups), rows - n_hot),
        ]
    )
    rng.shuffle(keys)
    hit = rng.random(rows) < match_share
    notes = np.array(
        ["hit-entry" if h else "cold-entry" for h in hit], dtype=object
    )
    fact = {
        "k": keys,
        "v": rng.random(rows),
        "w": rng.integers(0, 1000, rows),
        "note": notes,
    }
    dim = {
        "k": np.arange(num_groups, dtype=np.int64),
        "label": np.array([f"g{i}" for i in range(num_groups)], dtype=object),
    }
    return fact, dim


def skewed_join_queries(count: int, seed: int = 0) -> List[str]:
    """Distinct misestimate-prone join/group-by queries over the
    :func:`skewed_join_dataset` tables ``T`` (fact) and ``D`` (dim).

    Every query keeps the ``note CONTAINS 'hit'`` misestimate lever and a
    join on the skewed key; the varying aggregate/extra-predicate mix
    makes each query plan distinct so no two share a SmartIndex entry.
    """
    rng = random.Random(seed)
    aggs = ["SUM(T.v)", "COUNT(*)", "MIN(T.v)", "MAX(T.v)", "AVG(T.v)", "SUM(T.w)"]
    queries: List[str] = []
    for i in range(count):
        agg = aggs[i % len(aggs)]
        extra = ""
        if rng.random() < 0.5:
            extra = f" AND (T.w {rng.choice(_NUM_OPS)} {rng.randint(50, 950)})"
        queries.append(
            f"SELECT D.label AS g, COUNT(*) AS n, {agg} AS a "
            f"FROM T JOIN D ON T.k = D.k "
            f"WHERE (T.note CONTAINS 'hit'){extra} "
            f"GROUP BY D.label ORDER BY g"
        )
    return queries
