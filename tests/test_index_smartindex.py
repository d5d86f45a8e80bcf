"""SmartIndex manager: lookup, complement reuse, LRU, TTL, preferences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index import smartindex
from repro.index.smartindex import SmartIndexEntry, SmartIndexManager
from repro.index.bitmap import BitVector
from repro.planner.cnf import AtomicPredicate, Clause, to_cnf
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
    mask, missing = mgr.cover("b0", cnf.clauses, now=0.0)
    assert len(missing) == 1
    assert list(mask.to_bool_array()) == [True, True, False]
    mgr.insert("b0", cnf.clauses[1].atoms[0], _mask([1, 0, 1]), now=0.0)
    mask, missing = mgr.cover("b0", cnf.clauses, now=0.0)
    assert missing == []
    assert list(mask.to_bool_array()) == [True, False, False]


def test_ttl_expiry():
    mgr = SmartIndexManager(ttl_s=100.0)
    mgr.insert("b0", _atom("c2 > 5"), _mask([1]), now=0.0)
    assert mgr.lookup_atom("b0", _atom("c2 > 5"), now=99.0) is not None
    assert mgr.lookup_atom("b0", _atom("c2 > 5"), now=100.0) is not None  # ttl_s exactly
    assert mgr.lookup_atom("b0", _atom("c2 > 5"), now=201.0) is None
    assert mgr.stats.evictions_ttl == 1


def test_defaults_are_the_papers_72_hours_and_512_mb():
    """§IV-C-2's index TTL is 72 hours, §VI-A's per-leaf index memory
    512 MB."""
    mgr = SmartIndexManager()
    assert mgr.memory_budget_bytes == 512 * 2**20
    hours = 3600.0
    mgr.insert("b0", _atom("c2 > 5"), _mask([1]), now=0.0)
    assert mgr.lookup_atom("b0", _atom("c2 > 5"), now=72 * hours - 1.0) is not None
    assert mgr.lookup_atom("b0", _atom("c2 > 5"), now=72 * hours + 1.0) is None


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
    # budget fits ~2 entries: a>2 (LRU) must have been evicted, alone
    assert mgr.stats.evictions_lru == 1
    assert mgr.lookup_atom("b0", _atom("a > 2"), now=4.0) is None


def test_a_cover_hit_is_a_use_in_lru_order():
    mgr = SmartIndexManager(memory_budget_bytes=400, compress=False)
    big = _mask([True] * 800)
    mgr.insert("b0", _atom("a > 1"), big, now=0.0)
    mgr.insert("b0", _atom("a > 2"), big, now=1.0)
    _mask_out, missing = mgr.cover("b0", to_cnf(parse_expression("a > 1")).clauses, now=2.0)
    assert missing == []
    mgr.insert("b0", _atom("a > 3"), big, now=3.0)
    assert mgr.lookup_atom("b0", _atom("a > 2"), now=4.0) is None
    assert mgr.lookup_atom("b0", _atom("a > 1"), now=4.0) is not None


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
    _mask_out, missing = mgr.cover("b0", cnf.clauses, now=1.0)
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


def test_preferred_entry_expires_after_unprefer(monkeypatch):
    # Preferred entries ride out their TTL in _pinned_expired; once the
    # preference is dropped, the next sweep past SWEEP_INTERVAL_S
    # evicts them.
    monkeypatch.setattr(smartindex, "SWEEP_INTERVAL_S", 10.0)
    mgr = SmartIndexManager(ttl_s=100.0)
    atom = _atom("c2 > 5")
    mgr.prefer_predicate(atom.key)
    mgr.insert("b0", atom, _mask([1]), now=0.0)
    assert mgr.lookup_atom("b0", atom, now=150.0) is not None  # pinned past TTL
    mgr.unprefer_predicate(atom.key)
    mgr.lookup_atom("b0", atom, now=200.0)
    assert mgr.lookup_atom("b0", atom, now=211.0) is None
    assert mgr.stats.evictions_ttl == 1


def test_a_recreated_pinned_entry_leaves_the_pinned_sweep_clock_alone():
    # Re-creating a pinned entry drops its pinned record, so a sweep with
    # nothing pinned is skipped and does not restart the sweep interval.
    mgr = SmartIndexManager(ttl_s=100.0)
    a, b = _atom("a > 1"), _atom("b > 1")
    mgr.prefer_predicate(a.key)
    mgr.prefer_predicate(b.key)
    mgr.insert("b0", a, _mask([1]), now=0.0)
    mgr.insert("b0", b, _mask([1]), now=120.0)
    assert mgr.lookup_atom("b0", a, now=150.0) is not None  # a pinned; pinned sweep at 150
    mgr.insert("b0", a, _mask([1]), now=160.0)  # re-created: TTL restarts
    assert mgr.lookup_atom("b0", a, now=215.0) is not None  # nothing pinned: no pinned sweep
    assert mgr.lookup_atom("b0", b, now=221.0) is not None  # b pinned; pinned sweep at 221
    mgr.unprefer_predicate(b.key)
    assert mgr.lookup_atom("b0", b, now=276.0) is not None  # 55 s since the last pinned sweep
    assert mgr.stats.evictions_ttl == 0
    assert mgr.lookup_atom("b0", b, now=281.0) is None
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


def test_an_unpreferred_predicate_pins_no_later_entry():
    mgr = SmartIndexManager(ttl_s=100.0)
    atom = _atom("c2 > 5")
    mgr.prefer_predicate(atom.key)
    mgr.unprefer_predicate(atom.key)
    mgr.insert("b0", atom, _mask([1]), now=0.0)
    assert mgr.lookup_atom("b0", atom, now=150.0) is None


def test_cover_expires_the_oldest_entry_while_a_newer_one_lives():
    mgr = SmartIndexManager(ttl_s=100.0)
    mgr.insert("b0", _atom("a > 1"), _mask([1]), now=0.0)
    mgr.insert("b0", _atom("b > 1"), _mask([1]), now=150.0)
    clauses = to_cnf(parse_expression("a > 1 AND b > 1")).clauses
    _mask_out, missing = mgr.cover("b0", clauses, now=201.0)
    assert [str(c) for c in missing] == ["(a > 1)"]
    assert mgr.stats.evictions_ttl == 1


def test_compacting_ttl_records_keeps_every_live_entrys_record():
    """Re-creating one entry leaves a stale TTL record each time, until
    the records are compacted; the other entry's record stays, so it
    still expires."""
    mgr = SmartIndexManager(ttl_s=100.0)
    atom, churn = _atom("a > 1"), _atom("b > 1")
    mgr.insert("b0", atom, _mask([1]), now=0.0)
    for i in range(20):
        mgr.insert("b0", churn, _mask([1]), now=1.0 + i)
    assert mgr.lookup_atom("b0", atom, now=115.0) is None
    assert mgr.lookup_atom("b0", churn, now=115.0) is not None
    assert mgr.lookup_atom("b0", churn, now=250.0) is None


def test_a_removed_entry_leaves_its_predicates_index():
    mgr = SmartIndexManager(ttl_s=100.0)
    atom = _atom("c2 > 5")
    mgr.insert("b0", atom, _mask([1]), now=0.0)
    assert mgr.lookup_atom("b0", atom, now=150.0) is None  # TTL removed it
    mgr.prefer_predicate(atom.key)  # finds no entry left to pin
    mgr.insert("b0", atom, _mask([1]), now=160.0)
    assert mgr.lookup_atom("b0", atom, now=500.0) is not None


# -- complement answers over NaN rows (S49, S79) -----------------------------

OPS = (
    BinaryOperator.LT,
    BinaryOperator.LE,
    BinaryOperator.GT,
    BinaryOperator.GE,
    BinaryOperator.EQ,
    BinaryOperator.NE,
)

#: Small shared value domain so cached and probed atoms collide often
#: (including on values matching zero rows).
values = st.integers(min_value=-2, max_value=6)
plain_columns = st.lists(
    st.floats(min_value=-4, max_value=8, allow_nan=False), min_size=1, max_size=48
).map(lambda xs: np.array(xs, dtype=np.float64))
nan_columns = st.lists(
    st.one_of(st.floats(min_value=-4, max_value=8, allow_nan=False), st.just(float("nan"))),
    min_size=1,
    max_size=48,
).map(lambda xs: np.array(xs, dtype=np.float64))


def _manager(col, cached):
    mgr = SmartIndexManager(compress=False)
    for i, (op, v) in enumerate(cached):
        atom = AtomicPredicate("c", op, v)
        mgr.insert("b", atom, atom.evaluate(col), now=float(i) * 1e-3)
    return mgr


def _single(atom):
    return [Clause((atom,))]


@settings(deadline=None, max_examples=60)
@given(
    col=plain_columns,
    cached=st.lists(st.tuples(st.sampled_from(OPS[:5]), values), max_size=8),
    probe_op=st.sampled_from(OPS),
    probe_value=values,
)
def test_full_cover_bit_identical_without_nan(col, cached, probe_op, probe_value):
    """Without NaN both answers, exact and complement, equal evaluation."""
    mgr = _manager(col, cached)
    probe = AtomicPredicate("c", probe_op, probe_value)
    mask, missing = mgr.cover("b", _single(probe), now=1.0)
    if mask is not None and not missing:
        np.testing.assert_array_equal(mask.to_bool_array(), probe.evaluate(col))


@settings(deadline=None, max_examples=60)
@given(col=nan_columns, v=values)
def test_complement_interaction_with_nan(col, v):
    """NE via the EQ complement is NaN-exact; an entry inserted without
    ``nan_rows`` hands ordered probes its bit-NOT (Fig 7), which differs
    from scalar evaluation on NaN rows — the leaf passes the flag, see
    the test below."""
    mgr = _manager(col, [(BinaryOperator.EQ, v)])
    ne = AtomicPredicate("c", BinaryOperator.NE, v)
    mask, missing = mgr.cover("b", _single(ne), now=1.0)
    assert mask is not None and not missing
    np.testing.assert_array_equal(mask.to_bool_array(), ne.evaluate(col))

    mgr2 = _manager(col, [(BinaryOperator.GT, v)])
    le = AtomicPredicate("c", BinaryOperator.LE, v)
    mask2, missing2 = mgr2.cover("b", _single(le), now=1.0)
    assert mask2 is not None and not missing2
    gt = AtomicPredicate("c", BinaryOperator.GT, v)
    np.testing.assert_array_equal(mask2.to_bool_array(), ~gt.evaluate(col))


@settings(deadline=None, max_examples=60)
@given(col=nan_columns, v=values, op=st.sampled_from(OPS))
def test_no_ordered_complement_over_nan_rows(col, v, op):
    """Given ``nan_rows``, an ordered probe does not take the bit-NOT of
    its complement's vector (it would add the NaN rows); EQ and NE still
    answer each other."""
    nan_rows = bool(np.isnan(col).any())
    mgr = SmartIndexManager(compress=False)
    stored = AtomicPredicate("c", op, v).complement()
    mgr.insert("b", stored, stored.evaluate(col), now=0.0, nan_rows=nan_rows)
    probe = stored.complement()
    vec = mgr.lookup_atom("b", probe, now=1.0)
    exact = not nan_rows or probe.bounds is None or stored.bounds is None
    assert (vec is not None) == exact
    if vec is not None:
        np.testing.assert_array_equal(vec.to_bool_array(), probe.evaluate(col))


def test_empty_cache_and_narrower_range_miss():
    """The cache answers keys, not ranges: a cached ``c < 5`` leaves a
    ``c < 3`` probe missing, as does an empty cache."""
    probe = AtomicPredicate("c", BinaryOperator.LT, 3)
    mgr = SmartIndexManager()
    mask, missing = mgr.cover("b", _single(probe), now=0.0)
    assert mask is None and len(missing) == 1

    wider = AtomicPredicate("c", BinaryOperator.LT, 5)
    mgr.insert("b", wider, np.array([True, True, False]), now=0.0)
    mask, missing = mgr.cover("b", _single(probe), now=0.0)
    assert mask is None and len(missing) == 1
    assert mgr.stats.misses == 2 and mgr.entry_count == 1


def test_prefer_unprefer_uses_secondary_index():
    col = np.arange(64, dtype=np.float64)
    mgr = SmartIndexManager(compress=False)
    atom = AtomicPredicate("c", BinaryOperator.LT, 9)
    for block in ("b0", "b1", "b2"):
        mgr.insert(block, atom, col < 9, now=0.0)
    other = AtomicPredicate("c", BinaryOperator.LT, 11)
    mgr.insert("b0", other, col < 11, now=0.0)
    mgr.prefer_predicate(atom.key)
    assert all(e.preferred for b in ("b0", "b1", "b2")
               for e in mgr.entries_for_block(b) if e.predicate_key == atom.key)
    assert not any(e.preferred for e in mgr.entries_for_block("b0")
                   if e.predicate_key == other.key)
    mgr.unprefer_predicate(atom.key)
    assert not any(e.preferred for b in ("b0", "b1", "b2")
                   for e in mgr.entries_for_block(b))
