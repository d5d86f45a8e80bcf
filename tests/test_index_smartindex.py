"""SmartIndex manager: lookup, complement reuse, LRU, TTL, preferences."""

import numpy as np
import pytest

from repro.index.smartindex import SmartIndexEntry, SmartIndexManager
from repro.index.bitmap import BitVector
from repro.planner.cnf import AtomicPredicate, to_cnf
from repro.sql.ast import BinaryOperator
from repro.sql.parser import parse_expression


def _atom(text):
    from repro.planner.cnf import extract_atom

    return extract_atom(parse_expression(text))


def _mask(bits):
    return np.array(bits, dtype=bool)


def test_insert_then_exact_hit():
    mgr = SmartIndexManager()
    atom = _atom("c2 > 5")
    mgr.insert("b0", atom, _mask([1, 0, 1]), now=0.0)
    vec = mgr.lookup_atom("b0", atom, now=1.0)
    assert list(vec.to_bool_array()) == [True, False, True]
    assert mgr.stats.hits == 1 and mgr.stats.misses == 0


def test_complement_hit_via_bit_not():
    # Fig 7: index for `c2 > 5` answers `c2 <= 5` through one NOT.
    mgr = SmartIndexManager()
    mgr.insert("b0", _atom("c2 > 5"), _mask([1, 0, 1]), now=0.0)
    vec = mgr.lookup_atom("b0", _atom("c2 <= 5"), now=1.0)
    assert list(vec.to_bool_array()) == [False, True, False]
    assert mgr.stats.complement_hits == 1


def test_miss_counts():
    mgr = SmartIndexManager()
    assert mgr.lookup_atom("b0", _atom("x = 1"), now=0.0) is None
    assert mgr.stats.misses == 1


def test_block_scoped():
    mgr = SmartIndexManager()
    mgr.insert("b0", _atom("c2 > 5"), _mask([1]), now=0.0)
    assert mgr.lookup_atom("b1", _atom("c2 > 5"), now=0.0) is None


def test_lookup_clause_or_semantics():
    mgr = SmartIndexManager()
    cnf = to_cnf(parse_expression("a > 5 OR b < 2"))
    clause = cnf.clauses[0]
    mgr.insert("b0", clause.atoms[0], _mask([1, 0, 0]), now=0.0)
    assert mgr.lookup_clause("b0", clause, now=0.0) is None  # partial: no
    mgr.insert("b0", clause.atoms[1], _mask([0, 0, 1]), now=0.0)
    vec = mgr.lookup_clause("b0", clause, now=0.0)
    assert list(vec.to_bool_array()) == [True, False, True]


def test_cover_full_and_partial():
    mgr = SmartIndexManager()
    cnf = to_cnf(parse_expression("a > 5 AND b < 2"))
    mgr.insert("b0", cnf.clauses[0].atoms[0], _mask([1, 1, 0]), now=0.0)
    mask, missing, _ = mgr.cover("b0", cnf.clauses, now=0.0)
    assert len(missing) == 1
    assert list(mask.to_bool_array()) == [True, True, False]
    mgr.insert("b0", cnf.clauses[1].atoms[0], _mask([1, 0, 1]), now=0.0)
    mask, missing, _ = mgr.cover("b0", cnf.clauses, now=0.0)
    assert missing == []
    assert list(mask.to_bool_array()) == [True, False, False]


def test_ttl_expiry():
    mgr = SmartIndexManager(ttl_s=100.0)
    mgr.insert("b0", _atom("c2 > 5"), _mask([1]), now=0.0)
    assert mgr.lookup_atom("b0", _atom("c2 > 5"), now=99.0) is not None
    assert mgr.lookup_atom("b0", _atom("c2 > 5"), now=201.0) is None
    assert mgr.stats.evictions_ttl == 1


def test_preferred_survives_ttl():
    mgr = SmartIndexManager(ttl_s=100.0)
    mgr.prefer_predicate(_atom("c2 > 5").key)
    mgr.insert("b0", _atom("c2 > 5"), _mask([1]), now=0.0)
    assert mgr.lookup_atom("b0", _atom("c2 > 5"), now=500.0) is not None


def test_lru_eviction_under_memory_pressure():
    mgr = SmartIndexManager(memory_budget_bytes=400, compress=False)
    big = _mask([True] * 800)
    mgr.insert("b0", _atom("a > 1"), big, now=0.0)
    mgr.insert("b0", _atom("a > 2"), big, now=1.0)
    mgr.lookup_atom("b0", _atom("a > 1"), now=2.0)  # touch a>1
    mgr.insert("b0", _atom("a > 3"), big, now=3.0)
    # budget fits ~2 entries: a>2 (LRU) must have been evicted
    assert mgr.stats.evictions_lru >= 1
    assert mgr.lookup_atom("b0", _atom("a > 2"), now=4.0) is None


def test_preferred_last_victim():
    mgr = SmartIndexManager(memory_budget_bytes=400, compress=False)
    big = _mask([True] * 800)
    mgr.prefer_predicate(_atom("a > 1").key)
    mgr.insert("b0", _atom("a > 1"), big, now=0.0)
    mgr.insert("b0", _atom("a > 2"), big, now=1.0)
    mgr.insert("b0", _atom("a > 3"), big, now=2.0)
    assert mgr.lookup_atom("b0", _atom("a > 1"), now=3.0) is not None


def test_unprefer():
    mgr = SmartIndexManager()
    key = _atom("a > 1").key
    mgr.prefer_predicate(key)
    mgr.insert("b0", _atom("a > 1"), _mask([1]), now=0.0)
    mgr.unprefer_predicate(key)
    assert not mgr.entries_for_block("b0")[0].preferred


def test_compression_round_trip_through_entry():
    sparse = np.zeros(10_000, dtype=bool)
    sparse[5] = True
    entry = SmartIndexEntry.build("b0", "k", BitVector.from_bool_array(sparse), now=0.0)
    assert entry.compressed is not None  # sparse vector compresses
    assert (entry.vector().to_bool_array() == sparse).all()


def test_dense_random_vector_stays_raw():
    rng = np.random.default_rng(0)
    noisy = rng.integers(0, 2, 10_000).astype(bool)
    entry = SmartIndexEntry.build("b0", "k", BitVector.from_bool_array(noisy), now=0.0)
    assert entry.raw is not None  # RLE would not help


def test_block_key_is_opaque_to_the_manager():
    """A leaf keys vectors by (block id, incarnation): a rewritten block's
    key never finds the vectors of the bytes it replaced."""
    mgr = SmartIndexManager()
    mgr.insert(("b0", 1), _atom("a > 1"), _mask([1]), now=0.0)
    mgr.insert(("b1", 1), _atom("a > 1"), _mask([1]), now=0.0)
    assert mgr.lookup_atom(("b0", 2), _atom("a > 1"), now=0.0) is None
    assert mgr.lookup_atom(("b0", 1), _atom("a > 1"), now=0.0) is not None
    assert [e.block_id for e in mgr.entries_for_block(("b0", 1))] == [("b0", 1)]
    assert mgr.entries_for_block(("b0", 2)) == []


def test_reinsert_replaces_bytes_accounting():
    mgr = SmartIndexManager(compress=False)
    mgr.insert("b0", _atom("a > 1"), _mask([1] * 100), now=0.0)
    before = mgr.used_bytes
    mgr.insert("b0", _atom("a > 1"), _mask([1] * 100), now=1.0)
    assert mgr.used_bytes == before
    assert mgr.entry_count == 1


def test_stats_miss_ratio():
    mgr = SmartIndexManager()
    mgr.lookup_atom("b0", _atom("a > 1"), now=0.0)
    mgr.insert("b0", _atom("a > 1"), _mask([1]), now=0.0)
    mgr.lookup_atom("b0", _atom("a > 1"), now=0.0)
    assert mgr.stats.miss_ratio() == pytest.approx(0.5)


def test_cover_sweeps_ttl_exactly_once():
    # A multi-clause CNF probe must not multiply TTL sweep cost: cover()
    # runs one sweep up front and passes sweep=False downward.
    mgr = SmartIndexManager()
    cnf = to_cnf(parse_expression("a > 5 AND b < 2 AND c = 3"))
    for clause in cnf.clauses:
        mgr.insert("b0", clause.atoms[0], _mask([1, 0, 1]), now=0.0)
    before = mgr.stats.ttl_sweeps
    _mask_out, missing, _ = mgr.cover("b0", cnf.clauses, now=1.0)
    assert missing == []
    assert mgr.stats.ttl_sweeps == before + 1


def test_lookup_sweeps_ttl_exactly_once():
    mgr = SmartIndexManager()
    cnf = to_cnf(parse_expression("a > 5 OR b < 2"))
    clause = cnf.clauses[0]
    for atom in clause.atoms:
        mgr.insert("b0", atom, _mask([1, 0]), now=0.0)
    before = mgr.stats.ttl_sweeps
    assert mgr.lookup_clause("b0", clause, now=1.0) is not None
    assert mgr.stats.ttl_sweeps == before + 1
    assert mgr.lookup_atom("b0", clause.atoms[0], now=2.0) is not None
    assert mgr.stats.ttl_sweeps == before + 2


def test_preferred_entry_expires_after_unprefer():
    # Preferred entries ride out their TTL in _pinned_expired; once the
    # preference is dropped, the next sweep past sweep_interval_s
    # evicts them.
    mgr = SmartIndexManager(ttl_s=100.0, sweep_interval_s=10.0)
    atom = _atom("c2 > 5")
    mgr.prefer_predicate(atom.key)
    mgr.insert("b0", atom, _mask([1]), now=0.0)
    assert mgr.lookup_atom("b0", atom, now=150.0) is not None  # pinned past TTL
    mgr.unprefer_predicate(atom.key)
    mgr.lookup_atom("b0", atom, now=200.0)
    assert mgr.lookup_atom("b0", atom, now=211.0) is None
    assert mgr.stats.evictions_ttl == 1


def test_ttl_reinsert_restarts_clock():
    # Re-creating an entry must invalidate the old deque record: the old
    # record's expiry must not evict the fresh entry.
    mgr = SmartIndexManager(ttl_s=100.0)
    atom = _atom("c2 > 5")
    mgr.insert("b0", atom, _mask([1]), now=0.0)
    mgr.insert("b0", atom, _mask([1]), now=90.0)
    assert mgr.lookup_atom("b0", atom, now=150.0) is not None
    assert mgr.stats.evictions_ttl == 0
    assert mgr.lookup_atom("b0", atom, now=191.0) is None
