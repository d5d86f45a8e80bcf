"""Unit tests for device cost models and counted resources."""

import pytest

from repro.sim.events import SimulationError, Simulator
from repro.sim.resources import Cpu, Device, Disk, Nic, Resource, Ssd


def test_device_serializes_fifo():
    sim = Simulator()
    dev = Device(sim, "d")
    done = []
    dev.service(2.0).add_callback(lambda e: done.append(sim.now))
    dev.service(3.0).add_callback(lambda e: done.append(sim.now))
    sim.run()
    assert done == [2.0, 5.0]  # second request queues behind the first


def test_device_idle_gap_not_charged():
    sim = Simulator()
    dev = Device(sim, "d")
    dev.service(1.0)
    ends = []
    # A request issued at t=10, after the device went idle, starts fresh.
    sim.schedule(10.0, lambda: dev.service(1.0).add_callback(lambda e: ends.append(sim.now)))
    sim.run()
    assert ends == [11.0]


def _assert_service_refused(amount):
    sim = Simulator()
    disk, cpu = Disk(sim), Cpu(sim, cores=2)
    with pytest.raises(SimulationError, match="negative service duration"):
        disk.service(amount)
    with pytest.raises(SimulationError, match="negative op count"):
        cpu.compute(amount)
    assert disk._free_at == 0.0 and cpu._lane_free_at == [0.0, 0.0]  # noqa: SLF001
    assert sim._queue == []  # noqa: SLF001


def test_device_negative_duration_rejected():
    _assert_service_refused(-1.0)


def test_device_nan_duration_rejected():
    """NaN used to pass the ``< 0`` check and leave the device's next free
    time (or a CPU lane's) at NaN."""
    _assert_service_refused(float("nan"))


def test_disk_read_time_includes_seek_and_bandwidth():
    sim = Simulator()
    disk = Disk(sim, bandwidth_bps=100.0, seek_s=0.5)
    assert disk.read_time(200) == pytest.approx(0.5 + 2.0)
    ev = disk.read(200)
    sim.run_until_complete(ev)
    assert sim.now == pytest.approx(2.5)
    assert disk.bytes_read == 200


def test_ssd_is_faster_than_disk():
    sim = Simulator()
    disk, ssd = Disk(sim), Ssd(sim)
    assert ssd.read_time(10**7) < disk.read_time(10**7)


def test_nic_transmit_time():
    sim = Simulator()
    nic = Nic(sim, bandwidth_bps=1000.0, latency_s=0.1)
    assert nic.transmit_time(500) == pytest.approx(0.6)


def test_cpu_lanes_run_in_parallel():
    sim = Simulator()
    cpu = Cpu(sim, cores=2, ops_per_sec=100.0)
    done = []
    cpu.compute(100).add_callback(lambda e: done.append(sim.now))
    cpu.compute(100).add_callback(lambda e: done.append(sim.now))
    cpu.compute(100).add_callback(lambda e: done.append(sim.now))
    sim.run()
    # two lanes: first two finish at 1.0, third queues to 2.0
    assert done == [1.0, 1.0, 2.0]
    assert cpu.ops_executed == 300


def test_cpu_requires_at_least_one_core():
    with pytest.raises(SimulationError):
        Cpu(Simulator(), cores=0)


def test_utilization_tracks_busy_fraction():
    sim = Simulator()
    dev = Device(sim, "d")
    dev.service(1.0)
    sim.run()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert dev.utilization() == pytest.approx(0.5)


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    a, b, c = res.request(), res.request(), res.request()
    sim.run()
    assert a.triggered and b.triggered and not c.triggered
    assert res.queue_length == 1
    res.release()
    sim.run()
    assert c.triggered


def test_resource_release_on_idle_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_resize_grants_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    waiting = res.request()
    sim.run()
    assert not waiting.triggered
    res.resize(2)
    sim.run()
    assert waiting.triggered


def test_release_after_a_shrink_returns_the_unit_instead_of_granting_it():
    """A pool resized below what is held hands no unit to a waiter until
    ``in_use`` is back within the new capacity (§V-B: new tasks wait for
    the reduced slot pool)."""
    sim = Simulator()
    res = Resource(sim, 2)
    a, b, c = res.request(), res.request(), res.request()
    res.resize(1)
    res.release()
    sim.run()
    assert a.triggered and b.triggered and not c.triggered
    assert (res.in_use, res.queue_length) == (1, 1)
    res.release()
    sim.run()
    assert c.triggered and (res.in_use, res.queue_length) == (1, 0)
    res.release()
    assert res.in_use == 0


def test_a_free_slot_is_granted_at_once_with_no_value():
    """A grant from a free pool is resolved when ``request`` returns, and a
    process that yields it resumes at the same instant."""
    sim = Simulator()
    res = Resource(sim, 2)
    grant = res.request()
    assert grant.triggered and grant.ok and grant.value is None
    assert grant._callbacks == () and sim._queue == []  # noqa: SLF001
    sim.run(until=2.0)
    resumed = []

    def holder():
        got = yield res.request()
        resumed.append((sim.now, got))

    sim.run_until_complete(sim.process(holder()))
    assert resumed == [(2.0, None)] and res.in_use == 2


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, 0)
    res = Resource(sim, 1)
    with pytest.raises(SimulationError):
        res.resize(0)


# -- order-preserving shortcuts (S57) -----------------------------------------


def test_cpu_picks_the_first_least_loaded_lane():
    """Each charge ends when ``min(range(cores), key=...)``'s lane, the
    lowest-numbered among equally free ones, would end it.  The lanes are
    a heap, so which lane took a charge is not state: only the multiset
    of free times is compared."""
    import random

    rng = random.Random(57)
    sim = Simulator()
    cpu = Cpu(sim, cores=4, ops_per_sec=1.0)
    reference = [0.0] * 4
    fired, expected = [], []
    for charge in range(400):
        if rng.random() < 0.3:
            sim.run(until=sim.now + rng.choice([0.0, 0.5, 2.0]))
        ops = rng.choice([1.0, 1.0, 2.0, 3.5])  # repeats force ties
        lane = min(range(4), key=lambda i: reference[i])
        reference[lane] = max(sim.now, reference[lane]) + ops
        # A timer fires at ``now + delay``, with ``delay = end - now``.
        expected.append((charge, sim.now + (reference[lane] - sim.now)))
        cpu.compute(ops).add_callback(lambda _ev, c=charge: fired.append((c, sim.now)))
        assert sorted(cpu._lane_free_at) == sorted(reference)  # noqa: SLF001
    sim.run()
    assert sorted(fired) == expected


def test_resource_waiters_are_granted_in_request_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    granted = []
    for name in "abcde":
        res.request().add_callback(lambda _ev, name=name: granted.append(name))
    res.release()
    res.release()
    res.resize(3)  # grants the next two at once
    sim.run()
    assert granted == ["a", "b", "c", "d"]
    assert res.queue_length == 1
