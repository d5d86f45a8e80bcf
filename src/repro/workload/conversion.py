"""The per-node conversion daemon (§III-B).

"To support heterogeneous storage systems, each storage node in a
specific storage system is deployed a light-weight process, which
monitors the storage for newly generated data (e.g., log data) and
converts the data into Feisu in columnar format when new data arrive."

Online services append *raw* newline-delimited JSON files under
``/raw/<node>/...`` on their local filesystem; each node's
:class:`ConversionDaemon` wakes periodically, hands every fresh raw file
to the :class:`~repro.workload.loggen.LogIngestor` all daemons share
(one block on that node, one logical table), charges the node's CPU —
it's a co-tenant of the business workload, so the work is visible in the
device model — and removes the consumed file.  A file the ingestor
rejects stays where it is, to be retried next sweep, and the daemon goes
on with the files after it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.errors import AnalysisError
from repro.sim.events import Event, Process
from repro.sim.netmodel import NodeAddress
from repro.workload.loggen import LogIngestor

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
    #: Files the ingestor would not store, once per sweep that met one.
    files_rejected: int = 0


class ConversionDaemon:
    """One node's light-weight raw→columnar conversion process."""

    def __init__(self, ingestor: LogIngestor, node: NodeAddress, period_s: float = DEFAULT_PERIOD_S):
        self.ingestor = ingestor
        self.node = node
        self.period_s = period_s
        self.stats = ConversionStats()
        self._process: Optional[Process] = None

    def convert_pending(self) -> Generator[Event, None, int]:
        """Process generator: convert every raw file this node owns;
        returns how many became blocks."""
        cluster = self.ingestor.cluster
        fs = cluster.local_fs
        converted = 0
        for path in fs.list_paths(f"/raw/{self.node}/"):
            try:
                lines = fs.read(path).decode("utf-8").splitlines()
                records = [json.loads(line) for line in lines if line]
                self.ingestor.ingest(self.node, records)
            except (AnalysisError, ValueError, OverflowError):  # bad json, an int past 64 bits
                self.stats.files_rejected += 1
                continue
            fs.delete(path)
            if not records:
                continue
            # Conversion is real work on a co-tenant node: charge the CPU.
            yield cluster.leaf_at(self.node).cpu.compute(OPS_PER_RECORD * len(records))
            self.stats.files_converted += 1
            self.stats.records_converted += len(records)
            converted += 1
        return converted

    def start(self) -> None:
        if self._process is None:
            self._process = self.ingestor.cluster.sim.every(
                self, self.convert_pending, f"convert-{self.node}", "convert-scan"
            )


def start_conversion_daemons(
    cluster, table_name: str = "service_logs", period_s: float = DEFAULT_PERIOD_S
) -> List[ConversionDaemon]:
    """One daemon per node, all feeding one ingestor and so one table."""
    ingestor = LogIngestor(cluster, table_name)
    daemons = [ConversionDaemon(ingestor, node, period_s) for node in cluster.nodes]
    for daemon in daemons:
        daemon.start()
    return daemons
