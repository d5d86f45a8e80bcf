"""What a task's control plane costs the interpreter, and the address type.

A drill-down query's tasks are tiny, so dispatch, placement, the network
hops and the index probe are most of what it costs.  The guard below
profiles one covered drill-down on the end-to-end benchmark's 2 x 4
cluster and bounds interpreter calls (Python functions and builtins, as
cProfile counts them) per task.  ``tools/dispatch_probe.py`` breaks the
same count down by module family for every e2e workload.
"""

from __future__ import annotations

import cProfile
import dataclasses

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.sim.netmodel import NodeAddress, TopologySpec

#: Calls per task of the query below, its own planning and finalizing
#: included: 245.9 on CPython 3.11 (248.5 while a CPU charge called
#: ``min`` and ``list.index``, ``LeafServer.pressure`` ``min`` and a
#: wave's placement ``getattr``; 269.8 while the run loops called
#: ``Event.succeed`` for every timer and ``Process._step`` for every
#: wake-up; 302.8 while a disk charge went through
#: ``read_time``, a column reader through ``codec_by_tag`` and
#: ``ChunkReader.__init__``, a SmartIndex hit through ``_lookup_clause``,
#: ``_lookup_atom``, ``_touch`` and ``vector()``, every probe through
#: ``_expire`` and ``Clause.is_indexable``, a wave's first placement
#: through a ``partial``, a task's settling through ``settle``, a result's
#: wire size through a generator and ``modeled_payload_bytes``, the scan
#: through ``_gather`` and ``report.finish()``, the parsed-block map
#: through ``_parsed_block`` and an emptiness test through numpy's
#: ``_any``; 316.3 while a partial aggregate was a
#: dict of per-group state objects, the stem's merge a generator, every
#: free slot's grant a new event and the straggler watchdog a generator
#: of its own; 339.1 while a timer went through
#: ``Simulator.timeout`` and ``Event.__init__``, a hop through
#: ``Link.occupy`` and a free slot's grant through ``succeed``, 379.1
#: while every queue entry took its number from ``next()`` on an
#: ``itertools.count`` and every event built a waiter list, 401.9 while
#: every task was placed by its own ``place`` call, 508.1 while every
#: message went send → transfer → _transfer → occupy → transfer_duration
#: and addresses hashed in Python).  The bound leaves 10 % for
#: interpreter and numpy versions; lower it when the count drops.
CALLS_PER_TASK_MEASURED = 245.9


def _calls(fn, *args):
    prof = cProfile.Profile()
    prof.enable()
    try:
        out = fn(*args)
    finally:
        prof.disable()
    return out, sum(entry.callcount for entry in prof.getstats())


def test_covered_drill_down_stays_within_its_call_budget():
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4))
    rng = np.random.default_rng(7)
    rows = 4096
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, b=DataType.INT64),
        {"a": rng.integers(0, 1000, rows), "b": rng.integers(0, 1000, rows)},
        block_rows=256,
    )
    sql = "SELECT COUNT(*), SUM(b) FROM T WHERE a < 500 AND b >= 100"
    cluster.query_job(sql)  # builds the index vectors and caches the statement
    job, calls = _calls(cluster.query_job, sql)
    assert job.error is None and job.stats.index_full_covers == job.stats.tasks_total == 16
    per_task = calls / job.stats.tasks_total
    assert per_task <= CALLS_PER_TASK_MEASURED * 1.1, per_task


# -- NodeAddress is a named tuple that behaves as the frozen dataclass did ----


def test_address_hash_str_and_repr_are_unchanged():
    addr = NodeAddress(1, 2, 3)
    assert hash(addr) == hash((1, 2, 3))
    assert str(addr) == "dc1/rack2/node3"
    assert repr(addr) == "NodeAddress(datacenter=1, rack=2, node=3)"
    assert (addr.datacenter, addr.rack, addr.node) == (1, 2, 3)
    assert addr == NodeAddress(1, 2, 3) and addr != NodeAddress(1, 2, 4)


def test_address_is_immutable():
    addr = NodeAddress(0, 1, 2)
    with pytest.raises(AttributeError):
        addr.node = 5  # type: ignore[misc]


@dataclasses.dataclass(frozen=True)
class _DataclassAddress:
    """The frozen dataclass ``NodeAddress`` used to be."""

    datacenter: int
    rack: int
    node: int


def test_address_sets_iterate_in_the_dataclass_order():
    spec = TopologySpec(datacenters=2, racks_per_datacenter=4, nodes_per_rack=16)
    triples = [(d, r, n) for d in range(2) for r in range(4) for n in range(16)]
    order = np.random.default_rng(11).permutation(len(triples))
    as_tuples = {NodeAddress(*triples[i]) for i in order}
    as_dataclasses = {_DataclassAddress(*triples[i]) for i in order}
    assert [tuple(a) for a in as_tuples] == [
        (a.datacenter, a.rack, a.node) for a in as_dataclasses
    ]
    assert sorted(as_tuples) == spec.addresses()
