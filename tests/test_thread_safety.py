"""Thread-safety of the structures documented as safe under concurrent
callers: SmartIndexManager probe/insert, SsdCache get/put and the
statement cache behind ``analyze_sql``.

Eight OS threads hammer one instance with a Hypothesis-generated
operation mix; afterwards the books must balance exactly — byte
accounting equal to the sum over live entries, secondary indexes
consistent with the primary map.  Without the per-manager lock these
races corrupt ``_bytes`` and the LRU/eviction structures.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.smartindex import SmartIndexManager
from repro import DataType, Schema
from repro.columnar.table import Catalog, Table
from repro.planner.cnf import AtomicPredicate
from repro.sql import analyzer
from repro.sql.ast import BinaryOperator
from repro.storage.ssd_cache import SsdCache

THREADS = 8


def _hammer(fn, per_thread_ops):
    """Run ``fn(thread_id, op_index)`` from THREADS threads, amplifying
    any unsynchronized interleaving with a common start barrier."""
    barrier = threading.Barrier(THREADS)

    def worker(tid):
        barrier.wait()
        for i in range(per_thread_ops):
            fn(tid, i)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [pool.submit(worker, tid) for tid in range(THREADS)]
        for f in futures:
            f.result()  # surface worker exceptions


def _check_index_books(mgr: SmartIndexManager):
    entries = list(mgr._entries.values())
    assert mgr.used_bytes == sum(e.nbytes for e in entries)
    assert mgr.entry_count == len(entries)
    assert mgr.used_bytes <= mgr.memory_budget_bytes
    for pred_key, keys in mgr._by_predicate.items():
        for key in keys:
            assert key in mgr._entries
            assert mgr._entries[key].predicate_key == pred_key
    for key, entry in mgr._entries.items():
        assert key == (entry.block_id, entry.predicate_key)
        assert key in mgr._by_predicate[entry.predicate_key]


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**31 - 1))
def test_smartindex_hammer(seed):
    rng = np.random.default_rng(seed)
    # A budget small enough that eviction runs concurrently with insert.
    mgr = SmartIndexManager(memory_budget_bytes=64 * 1024, compress=False)
    atoms = [
        AtomicPredicate(f"c{i % 5}", BinaryOperator.GT, int(v))
        for i, v in enumerate(rng.integers(0, 50, 64))
    ]
    blocks = [f"b{i}" for i in range(8)]
    masks = [rng.random(512) < 0.5 for _ in range(8)]
    plans = rng.integers(0, 2**31 - 1, THREADS)
    # A leaf keys entries by (block id, incarnation); a rewritten block
    # is the same id under a new incarnation.
    incarnations = {block: 0 for block in blocks}

    def ops(tid, i):
        r = np.random.default_rng(plans[tid] + i)
        atom = atoms[int(r.integers(0, len(atoms)))]
        block = blocks[int(r.integers(0, len(blocks)))]
        key = (block, incarnations[block])
        now = float(i)
        choice = int(r.integers(0, 5))
        if choice == 0:
            mgr.insert(key, atom, masks[int(r.integers(0, 8))], now)
        elif choice == 1:
            mgr.lookup_atom(key, atom, now)
        elif choice == 2:
            incarnations[block] += 1  # rewritten: inserts go under the new key
            mgr.insert((block, incarnations[block]), atom, masks[int(r.integers(0, 8))], now)
        elif choice == 3:
            mgr.prefer_predicate(atom.key)
        else:
            mgr.unprefer_predicate(atom.key)

    _hammer(ops, per_thread_ops=60)
    _check_index_books(mgr)


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**31 - 1), admit_all=st.booleans())
def test_ssd_cache_hammer(seed, admit_all):
    rng = np.random.default_rng(seed)
    cache = SsdCache(capacity_bytes=16 * 1024,
                     admit_preferred_only=not admit_all)
    paths = [f"/t/p{i % 4}/blk{i}" for i in range(24)]
    cache.prefer("/t/p0/")
    cache.prefer("/t/p1/")
    payloads = [bytes(int(n)) for n in rng.integers(1, 2048, 16)]
    plans = rng.integers(0, 2**31 - 1, THREADS)

    def ops(tid, i):
        r = np.random.default_rng(plans[tid] + i)
        path = paths[int(r.integers(0, len(paths)))]
        choice = int(r.integers(0, 5))
        if choice <= 1:
            cache.put(path, payloads[int(r.integers(0, len(payloads)))])
        elif choice == 2:
            cache.get(path, payloads[int(r.integers(0, len(payloads)))])
        elif choice == 3:
            cache.invalidate(path)
        else:
            cache.prefer("/t/p2/") if tid % 2 else cache.unprefer("/t/p2/")

    _hammer(ops, per_thread_ops=60)
    assert cache.used_bytes == sum(len(v) for v in cache._entries.values())
    assert cache.entry_count == len(cache._entries)
    assert cache.used_bytes <= cache.capacity_bytes
    assert cache.hits + cache.misses >= 0


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**31 - 1), bound=st.integers(1, 6))
def test_statement_cache_hammer(seed, bound):
    catalog = Catalog()
    catalog.register(Table("T", Schema.of(a=DataType.INT64, b=DataType.FLOAT64)))
    statements = [f"SELECT COUNT(*) AS n{i} FROM T WHERE a > {i}" for i in range(16)]
    plans = np.random.default_rng(seed).integers(0, 2**31 - 1, THREADS)

    def ops(tid, i):
        r = np.random.default_rng(plans[tid] + i)
        k = int(r.integers(0, len(statements)))
        if int(r.integers(0, 8)) == 0:  # a reload: every cached statement goes stale
            catalog.replace(Table("T", Schema.of(a=DataType.INT64, b=DataType.FLOAT64)))
        analyzed = analyzer.analyze_sql(statements[k], catalog)
        assert analyzed.output_names == [f"n{k}"]

    # Eviction runs on nearly every miss while other threads look up; a
    # short switch interval interleaves them mid-operation.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(analyzer, "STATEMENT_CACHE_ENTRIES", bound):
            _hammer(ops, per_thread_ops=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(catalog.statements) <= bound
    for sql, analyzed in catalog.statements.items():
        assert analyzed.output_names == [f"n{statements.index(sql)}"]
