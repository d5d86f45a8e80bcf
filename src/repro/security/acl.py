"""Access control and quotas for the entry guard (§III-C, §V-A).

Two layers:

* :class:`AccessControl` — per-table read grants checked when the job
  manager "verif[ies] accessed right of specific data set";
* :class:`QuotaPolicy` — per-user daily query / scanned-byte quotas the
  entry guard enforces before admitting traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set, Tuple

from repro.errors import AccessDeniedError, QuotaExceededError


class AccessControl:
    """Grant table: which users may read which tables."""

    def __init__(self) -> None:
        self._grants: Set[Tuple[str, str]] = set()
        self._admins: Set[str] = set()

    def grant(self, user: str, table: str) -> None:
        self._grants.add((user, table))

    def revoke(self, user: str, table: str) -> None:
        self._grants.discard((user, table))

    def make_admin(self, user: str) -> None:
        """Admins read everything (operators debugging the search engine)."""
        self._admins.add(user)

    def can_read(self, user: str, table: str) -> bool:
        return user in self._admins or (user, table) in self._grants

    def check_read(self, user: str, tables: Iterable[str]) -> None:
        denied = sorted(t for t in tables if not self.can_read(user, t))
        if denied:
            raise AccessDeniedError(f"user {user!r} may not read tables {denied}")


@dataclass
class Quota:
    """Per-user admission limits over a rolling day."""

    max_queries_per_day: int = 10_000
    max_scan_bytes_per_day: float = float("inf")


class RateLimiter:
    """Per-user token bucket — the entry guard's "capability protection
    to avoid malicious attacks" (§III-C).

    Each user accrues ``rate_per_s`` tokens up to ``burst``; a request
    with no token available is rejected rather than queued, so a runaway
    client can't build an unbounded backlog in the master.
    """

    def __init__(self, rate_per_s: float = 5.0, burst: int = 10):
        if rate_per_s <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst >= 1")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens: Dict[str, float] = {}
        self._last: Dict[str, float] = {}
        self.rejections = 0

    def try_acquire(self, user: str, now: float) -> bool:
        tokens = self._tokens.get(user, float(self.burst))
        last = self._last.get(user, now)
        tokens = min(self.burst, tokens + (now - last) * self.rate_per_s)
        self._last[user] = now
        if tokens < 1.0:
            self._tokens[user] = tokens
            self.rejections += 1
            return False
        self._tokens[user] = tokens - 1.0
        return True

    def check(self, user: str, now: float) -> None:
        if not self.try_acquire(user, now):
            raise QuotaExceededError(
                f"user {user!r} exceeded the request rate limit "
                f"({self.rate_per_s}/s, burst {self.burst})"
            )


class QuotaPolicy:
    """Tracks per-user consumption against quotas.

    The clock is the simulation clock; usage windows reset every
    86,400 simulated seconds.
    """

    DAY_S = 86_400.0

    def __init__(self, default: Quota = Quota()):
        self._default = default
        self._quotas: Dict[str, Quota] = {}
        self._window_start: Dict[str, float] = {}
        self._queries: Dict[str, int] = {}
        self._scan_bytes: Dict[str, float] = {}

    def set_quota(self, user: str, quota: Quota) -> None:
        self._quotas[user] = quota

    def _roll(self, user: str, now: float) -> None:
        start = self._window_start.get(user, now)
        if now - start >= self.DAY_S or user not in self._window_start:
            self._window_start[user] = now
            self._queries[user] = 0
            self._scan_bytes[user] = 0.0

    def admit_query(self, user: str, now: float) -> None:
        """Count one query; raise :class:`QuotaExceededError` over quota."""
        self._roll(user, now)
        quota = self._quotas.get(user, self._default)
        if self._queries[user] + 1 > quota.max_queries_per_day:
            raise QuotaExceededError(f"user {user!r} exceeded daily query quota")
        self._queries[user] += 1

    def charge_scan(self, user: str, nbytes: float, now: float) -> None:
        self._roll(user, now)
        quota = self._quotas.get(user, self._default)
        if self._scan_bytes[user] + nbytes > quota.max_scan_bytes_per_day:
            raise QuotaExceededError(f"user {user!r} exceeded daily scan-byte quota")
        self._scan_bytes[user] += nbytes

    def usage(self, user: str) -> Tuple[int, float]:
        return self._queries.get(user, 0), self._scan_bytes.get(user, 0.0)
