"""Streaming log-data generation onto node-local filesystems (§II).

Log data in Baidu "are generated on tens of thousands of online service
machines" at roughly 2.3 GB per hour per node and stay on the producing
machines' local filesystems; the light-weight per-node Feisu process
converts new arrivals into columnar blocks.

:class:`LogIngestor` models that pipeline: it appends batches of
log records (nested JSON, flattened via
:mod:`repro.columnar.json_flatten`) to per-node local storage as
columnar blocks and keeps one logical table spanning all nodes' logs.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.columnar.block import Block
from repro.columnar.json_flatten import align_columns, flatten_records
from repro.columnar.table import BlockRef, Table
from repro.errors import AnalysisError
from repro.sim.netmodel import NodeAddress
from repro.storage.loader import write_block

#: Paper figure: log volume per node per hour.
LOG_BYTES_PER_NODE_PER_HOUR = 2.3 * 1024**3

_ACTIONS = ["click", "view", "scroll", "search", "back"]
_PAGES = [f"/p{i}" for i in range(40)]


def generate_log_records(count: int, node_idx: int, hour: int, seed: int = 0) -> List[dict]:
    """Nested log records as the online service would emit them."""
    rng = random.Random((seed, node_idx, hour).__hash__())
    records = []
    for i in range(count):
        records.append(
            {
                "event_id": hour * 1_000_000 + node_idx * 10_000 + i,
                "hour": hour,
                "node": node_idx,
                "action": rng.choice(_ACTIONS),
                "latency_ms": round(rng.expovariate(1 / 40.0), 3),
                "request": {
                    "page": rng.choice(_PAGES),
                    "status": rng.choices([200, 404, 500], weights=[94, 4, 2])[0],
                },
                "tags": [f"t{rng.randrange(8)}" for _ in range(rng.randrange(3))],
            }
        )
    return records


class LogIngestor:
    """The per-node light-weight conversion process, for a whole cluster.

    Each ingested batch becomes one columnar block on the *producing
    node's* local filesystem; the logical ``table`` spans every node.
    """

    def __init__(self, cluster, table_name: str = "service_logs", scale_factor: float = 1.0):
        self.cluster = cluster
        self.table_name = table_name
        self.scale_factor = scale_factor
        self._table: Optional[Table] = None
        self._block_seq = 0

    def ingest(self, node: NodeAddress, records: Sequence[dict]) -> Optional[BlockRef]:
        """Convert one batch of fresh records on one node.

        An empty batch writes no block and returns None; the first batch
        that has records fixes the table's schema, and must have a field.
        A batch that cannot be stored raises :class:`AnalysisError` and
        leaves the table as it was.
        """
        if not records:
            return None
        schema, columns = flatten_records(records)
        if self._table is None:
            if not len(schema):
                raise AnalysisError(
                    f"the first batch of {self.table_name!r} has no fields to fix its schema"
                )
            self._table = Table(self.table_name, schema, description="node-local service logs")
            self.cluster.catalog.register(self._table)
        elif schema != self._table.schema:
            # Dense engine: every batch lands on the first-seen schema.
            columns = align_columns(self._table.schema, columns, len(records))
        block_id = f"{self.table_name}.b{self._block_seq}"
        self._block_seq += 1
        block = Block.from_arrays(block_id, self._table.schema, columns, self.scale_factor)
        ref = write_block(
            self.cluster.router, self.cluster.local_fs, f"/logs/{node}/{block_id}", block, node
        )
        self._table.add_block(ref)
        return ref

    def ingest_hour(self, hour: int, records_per_node: int = 500, seed: int = 0) -> int:
        """One simulated hour of logs across every node; returns blocks added."""
        added = 0
        for idx, node in enumerate(self.cluster.nodes):
            records = generate_log_records(records_per_node, idx, hour, seed)
            self.ingest(node, records)
            added += 1
        return added

    @property
    def table(self) -> Table:
        if self._table is None:
            raise RuntimeError("no log data ingested yet")
        return self._table
