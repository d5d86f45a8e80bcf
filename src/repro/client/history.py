"""Per-user query history (§III-C client).

"The client-end also collects user query histories to personalize data
indexing and caching.  Differently from the query collection in master
component, collection on the client side is used for SmartIndex to build
private index for specific users or user groups."

:class:`QueryHistory` records each submitted query's structural features
(columns touched, canonical predicate keys) and surfaces the frequent
ones so the client can install SmartIndex preferences.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.planner.physical import plan_shape
from repro.sql.analyzer import AnalyzedQuery


def _locked(method):
    """Serialize a public entry point on the instance's ``_lock``.

    The history is safe under concurrent callers (gateway sessions may
    record from concurrent drivers): an RLock keeps the log and its
    derived counters consistent — the same pattern as
    ``SmartIndexManager``."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class HistoryEntry:
    """One recorded query."""

    at: float
    user: str
    sql: str
    tables: Tuple[str, ...]
    columns: Tuple[str, ...]
    predicate_keys: Tuple[str, ...]
    #: Fingerprint of the plan the master ran
    #: (:func:`repro.planner.physical.plan_fingerprint`).
    plan_digest: str = ""


class QueryHistory:
    """Append-only log of query features with frequency queries."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        # deque(maxlen=...) drops the oldest entry in O(1) per insert;
        # the previous list rebuild was O(capacity) per query once full —
        # quadratic over a long session.
        self._entries: Deque[HistoryEntry] = deque(maxlen=capacity)
        self._lock = threading.RLock()

    def record(
        self,
        at: float,
        user: str,
        sql: str,
        analyzed: AnalyzedQuery,
        plan_digest: str = "",
    ) -> HistoryEntry:
        """Record one query; its features are the statement's, derived
        once per statement."""
        entry = HistoryEntry(
            at=at,
            user=user,
            sql=sql,
            tables=tuple(sorted(analyzed.table_names)),
            columns=analyzed.touched_columns,
            predicate_keys=plan_shape(analyzed).predicate_keys,
            plan_digest=plan_digest,
        )
        self._append(entry)
        return entry

    @_locked
    def _append(self, entry: HistoryEntry) -> None:
        self._entries.append(entry)

    @_locked
    def entries(self, user: Optional[str] = None, since: Optional[float] = None) -> List[HistoryEntry]:
        out: List[HistoryEntry] = list(self._entries)
        if user is not None:
            out = [e for e in out if e.user == user]
        if since is not None:
            out = [e for e in out if e.at >= since]
        return out

    def frequent_predicates(
        self, user: Optional[str] = None, since: Optional[float] = None, top: int = 10
    ) -> List[Tuple[str, int]]:
        """Most repeated canonical predicate keys — the candidates for
        per-user SmartIndex preferences."""
        counter: Counter = Counter()
        for entry in self.entries(user, since):
            counter.update(set(entry.predicate_keys))
        return counter.most_common(top)

    def frequent_columns(
        self, user: Optional[str] = None, since: Optional[float] = None, top: int = 10
    ) -> List[Tuple[str, int]]:
        counter: Counter = Counter()
        for entry in self.entries(user, since):
            counter.update(set(entry.columns))
        return counter.most_common(top)

    @_locked
    def __len__(self) -> int:
        return len(self._entries)
