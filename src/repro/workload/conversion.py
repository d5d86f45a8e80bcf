"""The per-node conversion daemon (§III-B).

"To support heterogeneous storage systems, each storage node in a
specific storage system is deployed a light-weight process, which
monitors the storage for newly generated data (e.g., log data) and
converts the data into Feisu in columnar format when new data arrive."

Online services append *raw* newline-delimited JSON files under
``/raw/<node>/...`` on their local filesystem; each node's
:class:`ConversionDaemon` wakes periodically, converts fresh raw files
into columnar blocks (charging the node's CPU — it's a co-tenant of the
business workload, so the work is visible in the device model), appends
them to the logical log table, and removes the consumed raw files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.columnar.block import Block
from repro.columnar.json_flatten import align_columns, flatten_records
from repro.columnar.schema import Schema
from repro.columnar.table import Table
from repro.sim.events import Event, Simulator
from repro.sim.netmodel import NodeAddress
from repro.storage.loader import make_block_ref

#: Abstract CPU ops to flatten+encode one raw record.
OPS_PER_RECORD = 300.0
#: Default scan period, simulated seconds.
DEFAULT_PERIOD_S = 30.0


def write_raw_records(cluster, node: NodeAddress, name: str, records: List[dict]) -> str:
    """What an online service does: append a raw json-lines file."""
    payload = "\n".join(json.dumps(r) for r in records).encode("utf-8")
    inner = f"/raw/{node}/{name}"
    cluster.local_fs.write(inner, payload, node=node)
    return inner


@dataclass
class ConversionStats:
    files_converted: int = 0
    records_converted: int = 0
    blocks_produced: int = 0


class ConversionDaemon:
    """One node's light-weight raw→columnar conversion process."""

    def __init__(
        self,
        cluster,
        node: NodeAddress,
        table_name: str = "service_logs",
        period_s: float = DEFAULT_PERIOD_S,
        scale_factor: float = 1.0,
    ):
        self.cluster = cluster
        self.node = node
        self.table_name = table_name
        self.period_s = period_s
        self.scale_factor = scale_factor
        self.stats = ConversionStats()
        self._block_seq = 0
        self._running = False

    # -- table management (shared across daemons) ---------------------------

    def _table(self, schema: Schema) -> Table:
        catalog = self.cluster.catalog
        if self.table_name in catalog:
            return catalog.get(self.table_name)
        table = Table(self.table_name, schema, description="daemon-converted logs")
        catalog.register(table)
        return table

    # -- one scan ---------------------------------------------------------------

    def convert_pending(self) -> Generator[Event, None, int]:
        """Process generator: convert every raw file this node owns."""
        fs = self.cluster.local_fs
        prefix = f"/raw/{self.node}/"
        converted = 0
        for path in fs.list_paths(prefix):
            payload = fs.read(path)
            records = [json.loads(line) for line in payload.decode("utf-8").splitlines() if line]
            if not records:
                fs.delete(path)
                continue
            schema, columns = flatten_records(records)
            table = self._table(schema)
            if table.schema != schema:
                columns = align_columns(table.schema, columns, len(records))
            block_id = f"{self.table_name}.{self.node}.b{self._block_seq}"
            self._block_seq += 1
            block = Block.from_arrays(block_id, table.schema, columns, self.scale_factor)
            blob = block.to_bytes()
            inner = f"/logs/{self.node}/{block_id}"
            incarnation = fs.write(inner, blob, node=self.node)
            table.add_block(
                make_block_ref(block, self.cluster.router.full_path(fs, inner), blob, incarnation)
            )
            fs.delete(path)
            # Conversion is real work on a co-tenant node: charge the CPU.
            leaf = self.cluster.leaf_at(self.node)
            yield leaf.cpu.compute(OPS_PER_RECORD * len(records))
            self.stats.files_converted += 1
            self.stats.records_converted += len(records)
            self.stats.blocks_produced += 1
            converted += 1
        return converted

    # -- background loop -----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.cluster.sim.process(self._loop(), name=f"convert-{self.node}")

    def _loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.cluster.sim.timeout(self.period_s)
            yield self.cluster.sim.process(self.convert_pending(), name="convert-scan")


def start_conversion_daemons(
    cluster, table_name: str = "service_logs", period_s: float = DEFAULT_PERIOD_S
) -> List[ConversionDaemon]:
    """One daemon per node, all feeding one logical table."""
    daemons = []
    for node in cluster.nodes:
        daemon = ConversionDaemon(cluster, node, table_name, period_s)
        daemon.start()
        daemons.append(daemon)
    return daemons
