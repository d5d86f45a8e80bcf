"""Delta encoding, replica repair, rate limiting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.encoding import DeltaEncoding, choose_encoding
from repro.columnar.schema import DataType
from repro.errors import QuotaExceededError, StorageError
from repro.security.acl import RateLimiter
from repro.sim.events import Simulator
from repro.sim.netmodel import NetworkTopology, TopologySpec
from repro.storage.maintenance import ReplicaRepairer
from repro.storage.systems import DistributedFS


# -- delta encoding ----------------------------------------------------------


def test_delta_round_trip_sorted():
    codec = DeltaEncoding()
    arr = np.arange(0, 10_000, 3, dtype=np.int64)
    out = codec.decode(codec.encode(arr), len(arr))
    assert (out == arr).all()


def test_delta_round_trip_unsorted():
    codec = DeltaEncoding()
    arr = np.array([5, -3, 10**15, -(10**15), 0], dtype=np.int64)
    assert (codec.decode(codec.encode(arr), len(arr)) == arr).all()


def test_delta_empty_and_singleton():
    codec = DeltaEncoding()
    for arr in (np.empty(0, dtype=np.int64), np.array([42], dtype=np.int64)):
        assert (codec.decode(codec.encode(arr), len(arr)) == arr).all()


def test_delta_rejects_floats():
    with pytest.raises(StorageError):
        DeltaEncoding().encode(np.array([1.5]))


def test_choose_encoding_picks_delta_for_arithmetic_sequence():
    arr = np.arange(100_000, 200_000, dtype=np.int64)  # high-cardinality, sorted
    codec = choose_encoding(arr, DataType.INT64)
    assert codec.name == "delta"
    assert len(codec.encode(arr)) < arr.nbytes / 100


def test_choose_encoding_avoids_delta_for_noise():
    rng = np.random.default_rng(2)
    arr = rng.integers(-(2**62), 2**62, 4000).astype(np.int64)
    assert choose_encoding(arr, DataType.INT64).name == "plain"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=300))
def test_property_delta_round_trip_with_overflow(values):
    codec = DeltaEncoding()
    arr = np.array(values, dtype=np.int64)
    assert (codec.decode(codec.encode(arr), len(arr)) == arr).all()


# -- replica repair -------------------------------------------------------------


def _repair_env():
    sim = Simulator()
    spec = TopologySpec(2, 2, 4)
    net = NetworkTopology(sim, spec)
    fs = DistributedFS(spec.addresses(), seed=5)
    return sim, net, fs


def test_repair_restores_replication():
    sim, net, fs = _repair_env()
    fs.write("/f", b"x" * 1000)
    fs.drop_replica("/f", fs.locations("/f")[0])
    assert len(fs.locations("/f")) == 2
    repairer = ReplicaRepairer(sim, net, fs)
    report = sim.run_until_complete(sim.process(repairer.repair_once()))
    assert report.repairs_done == 1
    assert report.bytes_copied == 1000
    assert len(fs.locations("/f")) == 3
    assert len(set(fs.locations("/f"))) == 3  # distinct nodes


def test_repair_noop_when_healthy():
    sim, net, fs = _repair_env()
    fs.write("/f", b"data")
    report = sim.run_until_complete(sim.process(repairer_once(sim, net, fs)))
    assert report.under_replicated == 0 and report.repairs_done == 0


def repairer_once(sim, net, fs):
    return ReplicaRepairer(sim, net, fs).repair_once()


def test_repair_reports_unrepairable():
    sim, net, fs = _repair_env()
    fs.write("/f", b"data")
    for addr in list(fs.locations("/f")):
        fs.drop_replica("/f", addr)  # all replicas gone
    repairer = ReplicaRepairer(sim, net, fs)
    report = sim.run_until_complete(sim.process(repairer.repair_once()))
    assert report.unrepairable == ["/f"]


def test_repair_background_loop():
    sim, net, fs = _repair_env()
    fs.write("/f", b"x" * 100)
    fs.drop_replica("/f", fs.locations("/f")[0])
    repairer = ReplicaRepairer(sim, net, fs, scan_period_s=10.0)
    repairer.start()
    sim.run(until=25.0)
    assert repairer.total_repairs >= 1
    assert len(fs.locations("/f")) == 3


def test_repair_charges_write_traffic():
    sim, net, fs = _repair_env()
    fs.write("/f", b"x" * 10_000)
    fs.drop_replica("/f", fs.locations("/f")[0])
    sim.run_until_complete(sim.process(ReplicaRepairer(sim, net, fs).repair_once()))
    assert sum(ln.bytes_carried for ln in net.links()) >= 10_000


# -- rate limiting -----------------------------------------------------------------


def test_rate_limiter_burst_then_reject():
    rl = RateLimiter(rate_per_s=1.0, burst=3)
    assert all(rl.try_acquire("u", 0.0) for _ in range(3))
    assert not rl.try_acquire("u", 0.0)
    assert rl.rejections == 1


def test_rate_limiter_refills_over_time():
    rl = RateLimiter(rate_per_s=2.0, burst=2)
    rl.try_acquire("u", 0.0)
    rl.try_acquire("u", 0.0)
    assert not rl.try_acquire("u", 0.1)
    assert rl.try_acquire("u", 1.0)  # ~1.8 tokens accrued


def test_rate_limiter_per_user_isolation():
    rl = RateLimiter(rate_per_s=1.0, burst=1)
    assert rl.try_acquire("a", 0.0)
    assert rl.try_acquire("b", 0.0)  # b unaffected by a's spend
    assert not rl.try_acquire("a", 0.0)


def test_rate_limiter_check_raises():
    rl = RateLimiter(rate_per_s=1.0, burst=1)
    rl.check("u", 0.0)
    with pytest.raises(QuotaExceededError, match="rate limit"):
        rl.check("u", 0.0)


def test_rate_limiter_validation():
    with pytest.raises(ValueError):
        RateLimiter(rate_per_s=0.0)
    with pytest.raises(ValueError):
        RateLimiter(burst=0)


def test_entry_guard_rate_limit_end_to_end(fresh_cluster):
    fresh_cluster.entry_guard.rate_limiter = RateLimiter(rate_per_s=0.001, burst=2)
    fresh_cluster.query("SELECT COUNT(*) FROM T")
    fresh_cluster.query("SELECT COUNT(*) FROM T")
    with pytest.raises(QuotaExceededError, match="rate limit"):
        fresh_cluster.query("SELECT COUNT(*) FROM T")
