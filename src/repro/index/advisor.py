"""Index advisor: turn query history into SmartIndex preferences.

§IV-C-2 gives users "interfaces ... to set preferences and retire
strategies on indices to increase the possibility that they are cached";
the client collects per-user history "to build private index for
specific users or user groups" (§III-C).  The advisor closes that loop:
it scores each historical predicate by *expected benefit* — how much
scan work a pinned index would save, given the predicate's repetition
rate and the table's size — and recommends the top ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.columnar.table import Catalog
from repro.planner.cost import OPS_PER_COMPARISON, OPS_PER_CONTAINS, CostModel


@dataclass(frozen=True)
class Recommendation:
    """One suggested preference, ranked by expected benefit."""

    predicate_key: str
    table: str
    repetitions: int
    #: Estimated seconds of scan+evaluation work one repetition saves.
    saved_seconds_per_use: float

    @property
    def score(self) -> float:
        # First use builds the index; every later one collects the win.
        return max(self.repetitions - 1, 0) * self.saved_seconds_per_use


class IndexAdvisor:
    """Scores history predicates against catalog statistics."""

    def __init__(self, catalog: Catalog, cost_model: Optional[CostModel] = None):
        self.catalog = catalog
        # Per-instance default: a def-time CostModel() would be shared
        # by every advisor and leak calibration tweaks between them.
        self.cost_model = cost_model if cost_model is not None else CostModel()

    def _saved_seconds(self, table_name: str, predicate_key: str) -> float:
        """Scan bytes + predicate ops a full-cover hit avoids, in seconds."""
        if table_name not in self.catalog:
            return 0.0
        table = self.catalog.get(table_name)
        column = predicate_key.split(" ")[1] if predicate_key.startswith("NOT ") else predicate_key.split(" ")[0]
        io_bytes = sum(ref.bytes_for([column]) * ref.scale_factor for ref in table.blocks)
        ops_per_row = (
            OPS_PER_CONTAINS if " CONTAINS " in predicate_key else OPS_PER_COMPARISON
        )
        rows = table.modeled_rows
        io_s = io_bytes / self.cost_model.disk_bandwidth_bps
        cpu_s = ops_per_row * rows / self.cost_model.cpu_ops_per_sec
        return io_s + cpu_s

    def recommend(
        self,
        entries: Sequence[Any],
        top: int = 5,
        min_repetitions: int = 2,
    ) -> List[Recommendation]:
        """Rank predicates from history entries by expected benefit.

        ``entries`` are :class:`repro.client.history.HistoryEntry`-shaped
        objects (``tables`` and ``predicate_keys`` attributes); the duck
        typing avoids a package cycle with the client layer.
        """
        reps: Counter = Counter()
        table_of: Dict[str, str] = {}
        for entry in entries:
            if not entry.tables:
                continue
            for key in set(entry.predicate_keys):
                reps[key] += 1
                table_of.setdefault(key, entry.tables[0])
        recs = [
            Recommendation(
                predicate_key=key,
                table=table_of[key],
                repetitions=count,
                saved_seconds_per_use=self._saved_seconds(table_of[key], key),
            )
            for key, count in reps.items()
            if count >= min_repetitions
        ]
        recs.sort(key=lambda r: r.score, reverse=True)
        return recs[:top]

    def recommend_for_user(
        self, history: Any, user: str, top: int = 5, since: Optional[float] = None
    ) -> List[Recommendation]:
        """Convenience over a :class:`repro.client.history.QueryHistory`."""
        return self.recommend(history.entries(user, since), top=top)


def apply_recommendations(cluster, recommendations: Sequence[Recommendation]) -> List[str]:
    """Pin the recommended predicates on every leaf's index manager."""
    keys = [r.predicate_key for r in recommendations]
    for leaf in cluster.leaves:
        if leaf.index_manager is not None:
            for key in keys:
                leaf.index_manager.prefer_predicate(key)
    return keys
