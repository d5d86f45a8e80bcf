"""Hardware cost models used by the simulated cluster.

Each leaf server owns a :class:`Disk`, an :class:`Ssd`, a :class:`Cpu`
and a :class:`Nic`.  These devices serialize work FIFO: a request issued
while the device is busy starts when the device frees up.  Because the
kernel is single-threaded this is modeled without processes — each device
tracks the time it will next be free and hands back a timeout event for
the caller's completion.

Default parameters mirror the paper's §VI-A hardware table: 4-core
2.4 GHz Xeon, 3 TB SATA disks, one 500 GB SSD, 1 Gbps full-duplex
Ethernet, 64 GB of memory.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.events import Event, SimulationError, Simulator

MB = 1024 * 1024
GB = 1024 * MB

#: Sequential bandwidth of one SATA spindle (paper nodes have four).
SATA_BANDWIDTH_BPS = 120 * MB
#: Random seek + rotational latency of a SATA disk.
SATA_SEEK_S = 8e-3
#: Read bandwidth of the node's SSD cache device.
SSD_BANDWIDTH_BPS = 450 * MB
SSD_SEEK_S = 8e-5
#: Per-port Ethernet bandwidth (1 Gbps full duplex).
NIC_BANDWIDTH_BPS = 125 * MB
NIC_LATENCY_S = 2e-4
#: Crude per-core scalar ops/s for predicate evaluation on a 2.4 GHz Xeon.
CPU_OPS_PER_SEC = 200e6


class Device:
    """A FIFO-serialized device with a scalar service rate.

    Subclasses expose intent-named helpers (``read``, ``transmit``,
    ``compute``) that translate a workload size into a service duration
    and enqueue it.
    """

    def __init__(self, sim: Simulator, name: str = "device"):
        self.sim = sim
        self.name = name
        #: Event name for every request, built once (not per request).
        self._event_name = f"{name}.service"
        self._free_at = 0.0
        self.busy_time = 0.0
        self.request_count = 0

    def service(self, duration: float, value: Any = None) -> Event:
        """Occupy the device for ``duration`` seconds (after queueing).

        Returns an event that fires when the work completes; its value is
        ``value``.
        """
        if duration < 0:
            raise SimulationError(f"negative service duration {duration}")
        now = self.sim.now
        start = max(now, self._free_at)
        end = start + duration
        self._free_at = end
        self.busy_time += duration
        self.request_count += 1
        return self.sim.timeout(end - now, value=value, name=self._event_name)

    def queue_delay(self) -> float:
        """Seconds a request issued now would wait before starting."""
        return max(0.0, self._free_at - self.sim.now)

    def utilization(self) -> float:
        """Fraction of elapsed simulation time this device was busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)


class Disk(Device):
    """A rotational disk: seek latency plus sequential bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = SATA_BANDWIDTH_BPS,
        seek_s: float = SATA_SEEK_S,
        name: str = "disk",
    ):
        super().__init__(sim, name=name)
        self.bandwidth_bps = bandwidth_bps
        self.seek_s = seek_s
        self.bytes_read = 0
        self.bytes_written = 0

    def read_time(self, nbytes: int, seeks: int = 1) -> float:
        return seeks * self.seek_s + nbytes / self.bandwidth_bps

    def read(self, nbytes: int, seeks: int = 1, value: Any = None) -> Event:
        self.bytes_read += nbytes
        return self.service(self.read_time(nbytes, seeks), value=value)

    def write(self, nbytes: int, seeks: int = 1, value: Any = None) -> Event:
        self.bytes_written += nbytes
        return self.service(self.read_time(nbytes, seeks), value=value)


class Ssd(Disk):
    """The node's SSD, used by Feisu's data-cache layer (§IV-B)."""

    def __init__(self, sim: Simulator, capacity_bytes: int = 500 * GB, name: str = "ssd"):
        super().__init__(sim, bandwidth_bps=SSD_BANDWIDTH_BPS, seek_s=SSD_SEEK_S, name=name)
        self.capacity_bytes = capacity_bytes


class Nic(Device):
    """A network port: per-message latency plus serialization time.

    Link-level contention along multi-hop paths is handled by
    :mod:`repro.sim.netmodel`; the NIC models the endpoint bottleneck.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = NIC_BANDWIDTH_BPS,
        latency_s: float = NIC_LATENCY_S,
        name: str = "nic",
    ):
        super().__init__(sim, name=name)
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.bytes_sent = 0

    def transmit_time(self, nbytes: int) -> float:
        return self.latency_s + nbytes / self.bandwidth_bps

    def transmit(self, nbytes: int, value: Any = None) -> Event:
        self.bytes_sent += nbytes
        return self.service(self.transmit_time(nbytes), value=value)


class Cpu(Device):
    """A multi-core CPU modeled as ``cores`` parallel lanes.

    Work is expressed in abstract "ops" (≈ one scalar comparison).  For
    simplicity each compute request runs on the least-loaded lane.
    """

    def __init__(
        self,
        sim: Simulator,
        cores: int = 4,
        ops_per_sec: float = CPU_OPS_PER_SEC,
        name: str = "cpu",
    ):
        super().__init__(sim, name=name)
        if cores < 1:
            raise SimulationError("cpu needs at least one core")
        self._event_name = f"{name}.compute"
        self.cores = cores
        self.ops_per_sec = ops_per_sec
        self._lane_free_at = [0.0] * cores
        self.ops_executed = 0.0

    def compute(self, ops: float, value: Any = None) -> Event:
        if ops < 0:
            raise SimulationError(f"negative op count {ops}")
        now = self.sim.now
        lanes = self._lane_free_at
        lane = lanes.index(min(lanes))  # first least-loaded lane
        start = max(now, lanes[lane])
        duration = ops / self.ops_per_sec
        end = start + duration
        lanes[lane] = end
        self.busy_time += duration
        self.request_count += 1
        self.ops_executed += ops
        return self.sim.timeout(end - now, value=value, name=self._event_name)

    def queue_delay(self) -> float:
        return max(0.0, min(self._lane_free_at) - self.sim.now)


class Resource:
    """A counted resource with FIFO waiters (e.g. task slots on a leaf).

    ``request()`` returns an event that fires once a unit is granted; the
    holder must call ``release()`` exactly once.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._grant_name = f"{name}.grant"
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        ev = Event(self.sim, self._grant_name)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def resize(self, capacity: int) -> None:
        """Change capacity at runtime (used when the cluster manager
        reclaims resources for business-critical services, §V-B)."""
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.capacity = capacity
        while self._waiters and self.in_use < self.capacity:
            self.in_use += 1
            self._waiters.popleft().succeed()

    @property
    def queue_length(self) -> int:
        return len(self._waiters)
