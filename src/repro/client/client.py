"""The Feisu client-end (§III-C).

"The client-end is a versatile component with pluggable framework to
support command-line tool, website-based service, and third-party tools.
It has two major functionalities: query syntax checking and access right
verification."

:class:`FeisuClient` wraps a :class:`~repro.core.feisu.FeisuCluster` for
one user:

* :meth:`check_syntax` validates SQL *before* submission and returns a
  guided error message;
* submission verifies the user's table rights client-side first, so bad
  requests never reach the master;
* every query feeds the per-user :class:`QueryHistory`, and
  :meth:`install_preferences` turns frequent predicates into SmartIndex
  preference pins on every leaf (private indexes for this user).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.client.history import QueryHistory
from repro.cluster.jobs import Job, JobOptions
from repro.core.feisu import FeisuCluster
from repro.engine.executor import QueryResult
from repro.errors import ParseError
from repro.planner.physical import plan_fingerprint
from repro.sql.analyzer import AnalyzedQuery, analyze_sql, guided
from repro.sql.parser import parse


@dataclass
class SyntaxReport:
    """Outcome of client-side syntax checking."""

    ok: bool
    message: str = ""
    position: int = -1


class FeisuClient:
    """A per-user handle onto a Feisu deployment."""

    def __init__(self, cluster: FeisuCluster, user: str):
        self.cluster = cluster
        self.user = user
        self.history = QueryHistory()
        # Ensure the user exists (no-op if already created by the caller).
        if user not in cluster._credentials:  # noqa: SLF001 - facade-internal
            cluster.create_user(user)

    # -- client-side verification ------------------------------------------

    def check_syntax(self, sql: str) -> SyntaxReport:
        """Validate syntax only; never contacts the servers."""
        try:
            parse(sql)
        except ParseError as exc:
            return SyntaxReport(ok=False, message=guided(exc, sql).args[0], position=exc.position)
        return SyntaxReport(ok=True)

    def verify_access(self, sql: str) -> None:
        """Raise :class:`AccessDeniedError` if the user lacks rights to
        any referenced table (mirrors the production pre-flight)."""
        self._guarded_preflight(sql)

    # -- querying -------------------------------------------------------------

    def _guarded_preflight(self, sql: str) -> AnalyzedQuery:
        """The client-side checks every submission path must pass: syntax
        with guided errors (as :meth:`check_syntax` words them), then the
        ACL read pre-flight.  The statement comes from the catalog's
        statement cache, where the master finds it again."""
        analyzed = analyze_sql(sql, self.cluster.catalog)
        self.cluster.acl.check_read(self.user, analyzed.table_names)
        return analyzed

    def query(self, sql: str, options: Optional[JobOptions] = None) -> QueryResult:
        """Syntax-check, verify rights, submit, record history.

        Routes through :meth:`query_job` so the recorded history entry
        carries the executed job's plan digest.
        """
        job = self.query_job(sql, options=options)
        if job.error is not None:
            raise job.error
        assert job.result is not None
        return job.result

    def query_job(self, sql: str, options: Optional[JobOptions] = None) -> Job:
        analyzed = self._guarded_preflight(sql)
        job = self.cluster.query_job(sql, user=self.user, options=options)
        self.history.record(
            self.cluster.sim.now,
            self.user,
            sql,
            analyzed,
            plan_digest=plan_fingerprint(job.plan),
        )
        return job

    def explain(self, sql: str) -> str:
        """Show the master's physical plan without executing the query."""
        self._guarded_preflight(sql)
        return self.cluster.explain(sql)

    def explain_analyze(self, sql: str, options: Optional[JobOptions] = None) -> str:
        """Execute the query with tracing on and render the plan annotated
        with what actually happened: per-operator simulated times, rows,
        bytes and index hits next to the cost estimates, plus per-task
        timings, backups and stragglers.

        The production system exposed "monitoring running information"
        (§III-C); this is its query-scoped view.
        """
        import dataclasses

        from repro.planner.explain import explain_analyze as render

        options = dataclasses.replace(options or JobOptions(), trace=True)
        job = self.query_job(sql, options=options)
        return render(job.plan, job)

    # -- SmartIndex personalization ----------------------------------------------

    def install_preferences(self, top: int = 5, since: Optional[float] = None) -> List[str]:
        """Pin the user's most frequent predicates in every leaf's index
        cache (§IV-C-2 user preference interface).  Returns pinned keys."""
        frequent = self.history.frequent_predicates(self.user, since=since, top=top)
        keys = [key for key, _count in frequent]
        for leaf in self.cluster.leaves:
            if leaf.index_manager is not None:
                for key in keys:
                    leaf.index_manager.prefer_predicate(key)
        return keys

    # -- presentation (the "command-line tool" plug-in) -----------------------------

    @staticmethod
    def format_table(result: QueryResult, max_rows: int = 20) -> str:
        """Render a result as an aligned text table."""
        rows = result.rows()[:max_rows]
        headers = list(result.columns)
        cells = [[_fmt(v) for v in row] for row in rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if result.num_rows > max_rows:
            lines.append(f"... ({result.num_rows - max_rows} more rows)")
        return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
