"""Kernels of the semantic SmartIndex layer (DESIGN.md S49): ``bench.py smartindex``.

Times the pieces ISSUE 4 added on top of the exact/complement cache:

* ``registry_probe_1k`` — the interval registry's O(log n) tightest-
  superset probe against a faithful linear scan over the same 1k cached
  atoms (the remedy the registry exists for); the suite's acceptance
  invariant requires the registry to win by ``MIN_PROBE_SPEEDUP``.
* ``semantic_compose`` — derived-atom bitmap composition
  (``EQ = LE &~ LT`` etc.) end to end through a semantic manager's ``cover``.
* ``residual_cover`` — candidate-mask clause probing over a 64k-row
  block, the residual-scan fast path.
* ``cost_evict`` — insert throughput under memory pressure with the
  benefit-per-byte heaps doing the evicting.

Times are library time in reference seconds (``_harness.best_ref_s``);
the figure reproductions' simulated numbers are untouched by definition.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from benchmarks._harness import best_ref_s, kernel_regressions
from repro.index.smartindex import SmartIndexManager
from repro.planner.cnf import AtomicPredicate, Clause, ConjunctiveForm
from repro.sql.ast import BinaryOperator

#: The interval-registry probe must beat the linear atom scan by this
#: factor at 1k cached entries (ISSUE 4 acceptance criterion).
MIN_PROBE_SPEEDUP = 5.0

REGISTRY_ENTRIES = 1_000
ROWS = 4_096
RESIDUAL_ROWS = 65_536


_RANGE_OPS = (
    BinaryOperator.LT,
    BinaryOperator.LE,
    BinaryOperator.GT,
    BinaryOperator.GE,
)


def _filled_semantic_manager(
    entries: int, rows: int = ROWS
) -> Tuple[SmartIndexManager, List[AtomicPredicate], np.ndarray]:
    """One block, ``entries`` cached range atoms over a few columns."""
    mgr = SmartIndexManager(compress=False, semantic=True)
    rng = np.random.default_rng(31)
    col = rng.uniform(0.0, 1_000_000.0, rows)
    atoms: List[AtomicPredicate] = []
    values = rng.integers(0, 1_000_000, entries)
    for i, v in enumerate(values):
        atom = AtomicPredicate(f"c{i % 4}", _RANGE_OPS[i % 4], int(v))
        atoms.append(atom)
        mgr.insert("b0", atom, atom.evaluate(col), now=float(i) * 1e-3)
    return mgr, atoms, col


def _linear_superset_scan(
    cached: List[AtomicPredicate], probe: AtomicPredicate
) -> Optional[AtomicPredicate]:
    """What probing without the registry costs: walk every cached atom
    of the block and implication-test it (directly and as a complement),
    keeping the first superset found."""
    for atom in cached:
        if probe.key != atom.key and probe.implies(atom):
            return atom
        comp = atom.complement()
        if probe.implies(comp):
            return comp
    return None


def bench_registry_probe_1k() -> Dict[str, float]:
    mgr, atoms, _col = _filled_semantic_manager(REGISTRY_ENTRIES)
    registry = mgr._registry  # noqa: SLF001 - benchmarking the internal probe
    rng = np.random.default_rng(37)
    probes = [
        AtomicPredicate(f"c{i % 4}", _RANGE_OPS[i % 4], int(v))
        for i, v in enumerate(rng.integers(0, 1_000_000, 2_000))
    ]
    # The linear baseline only sees atoms of the probed column — an
    # already-charitable baseline (a real scan filters on the fly).
    by_column: Dict[str, List[AtomicPredicate]] = {}
    for atom in atoms:
        by_column.setdefault(atom.column, []).append(atom)

    def fast():
        for probe in probes:
            registry.superset_candidates("b0", probe)

    def slow():
        for probe in probes:
            _linear_superset_scan(by_column[probe.column], probe)

    ref, linear = best_ref_s(fast, slow)
    return {
        "ref_s": ref / len(probes),
        "linear_ref_s": linear / len(probes),
        "speedup": linear / ref,
        "entries": REGISTRY_ENTRIES,
    }


def bench_semantic_compose() -> Dict[str, float]:
    """Derived-hit composition through a semantic manager's ``cover``.

    The cache holds LT/LE pairs at 200 values; every probe is an EQ at
    one of them — answered exactly by ``LE &~ LT`` without touching
    data.  Each manager is rebuilt per run because the first derived
    hit materializes, so reuse would measure exact hits instead.
    """
    rng = np.random.default_rng(41)
    col = rng.uniform(0.0, 100.0, ROWS)
    values = list(range(1, 201))
    probes = [
        ConjunctiveForm(
            [Clause((AtomicPredicate("c0", BinaryOperator.EQ, v),))]
        )
        for v in values
    ]

    def run():
        mgr = SmartIndexManager(compress=False, semantic=True)
        for i, v in enumerate(values):
            lt = AtomicPredicate("c0", BinaryOperator.LT, v)
            le = AtomicPredicate("c0", BinaryOperator.LE, v)
            mgr.insert("b0", lt, col < v, now=float(i) * 1e-3)
            mgr.insert("b0", le, col <= v, now=float(i) * 1e-3)
        for cnf in probes:
            mask, missing, residuals = mgr.cover("b0", cnf.clauses, now=1.0)
            assert mask is not None and not missing and not residuals
        return mgr

    (ref,) = best_ref_s(run)
    return {"ref_s": ref / len(probes), "rows": ROWS}


def bench_residual_cover() -> Dict[str, float]:
    """Candidate-mask probing on a big block: cached ``x < hi`` vectors
    answering tighter ``x < hi/2`` probes as residual candidates."""
    rng = np.random.default_rng(43)
    col = rng.uniform(0.0, 1000.0, RESIDUAL_ROWS)
    mgr = SmartIndexManager(compress=False, semantic=True)
    bounds = [float(b) for b in range(100, 1000, 100)]
    for i, hi in enumerate(bounds):
        atom = AtomicPredicate("c0", BinaryOperator.LT, hi)
        mgr.insert("b0", atom, col < hi, now=float(i))
    probes = [
        ConjunctiveForm(
            [Clause((AtomicPredicate("c0", BinaryOperator.LT, hi - 50.0),))]
        )
        for hi in bounds
    ]

    def run():
        hits = 0
        for cnf in probes:
            _mask, missing, residuals = mgr.cover("b0", cnf.clauses, now=100.0)
            hits += len(residuals)
            assert not missing
        return hits

    (ref,) = best_ref_s(run)
    return {"ref_s": ref / len(probes), "rows": RESIDUAL_ROWS}


def bench_cost_evict() -> Dict[str, float]:
    """Insert throughput with the benefit-per-byte policy evicting.

    The budget holds ~64 uncompressed 4k-row vectors; 512 inserts force
    ~448 heap-mediated evictions per run.
    """
    rng = np.random.default_rng(47)
    col = rng.uniform(0.0, 1_000_000.0, ROWS)
    inserts = 512
    budget = 64 * ((ROWS + 7) // 8 + 96)
    atoms = [
        AtomicPredicate(f"c{i % 4}", _RANGE_OPS[i % 4], int(v))
        for i, v in enumerate(rng.integers(0, 1_000_000, inserts))
    ]
    masks = [atom.evaluate(col) for atom in atoms]

    def run():
        mgr = SmartIndexManager(
            memory_budget_bytes=budget, compress=False, semantic=True
        )
        for i, (atom, mask) in enumerate(zip(atoms, masks)):
            mgr.insert("b0", atom, mask, now=float(i) * 1e-3)
        return mgr

    (ref,) = best_ref_s(run)
    return {"ref_s": ref / inserts, "inserts": inserts}


KERNELS: Dict[str, Callable[[], Dict[str, float]]] = {
    "registry_probe_1k": bench_registry_probe_1k,
    "semantic_compose": bench_semantic_compose,
    "residual_cover_64k": bench_residual_cover,
    "cost_evict_512": bench_cost_evict,
}


def run_suite() -> Dict[str, Dict[str, float]]:
    """Run every kernel; returns ``{kernel_name: metrics}``."""
    return {name: fn() for name, fn in KERNELS.items()}


def acceptance_failures(results: Dict[str, Dict[str, float]]) -> List[str]:
    """The suite's built-in invariants (independent of any baseline)."""
    problems = []
    speedup = results["registry_probe_1k"]["speedup"]
    if speedup < MIN_PROBE_SPEEDUP:
        problems.append(
            f"registry_probe_1k: {speedup:.1f}x vs linear scan "
            f"< required {MIN_PROBE_SPEEDUP:.0f}x"
        )
    return problems


regressions = kernel_regressions
