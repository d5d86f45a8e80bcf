"""Semantic SmartIndex correctness properties and cache-policy tests (S49).

The semantic layer's contract is that every *exact* answer it produces —
derived-by-composition bitmaps and residual scatter-backs — is
bit-identical to evaluating the predicate against the data, NaN rows
included.  Hypothesis drives columns with NaNs, empty intervals (values
matching no row) and mixed cached-op sets against that contract.  Fig 7
complement rewrites of *ordered* ops add the NaN rows; a leaf inserts
with ``nan_rows`` so that no probe with bounds takes them (S79), and an
entry inserted without the flag keeps the bit-NOT, pinned as-is.

Deterministic tests below cover the benefit-per-byte cache policy
(eviction order, admission rejection, probation→protected promotion),
the ``_by_predicate`` prefer/unprefer fast path, the advisor's
observed-benefit input, and the executor's fractional I/O charging.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DataType, FeisuCluster, FeisuConfig, LeafConfig, Schema
from repro.index.advisor import IndexAdvisor
from repro.index.intervals import IntervalRegistry
from repro.index.smartindex import SmartIndexManager
from repro.columnar.table import Catalog
from repro.cluster.jobs import JobOptions
from repro.planner.cnf import AtomicPredicate, Clause
from repro.sql.ast import BinaryOperator
from tests.test_planner_cnf import admitted, value_grid

settings.register_profile("semantic", deadline=None, max_examples=60)
settings.load_profile("semantic")

OPS = (
    BinaryOperator.LT,
    BinaryOperator.LE,
    BinaryOperator.GT,
    BinaryOperator.GE,
    BinaryOperator.EQ,
    BinaryOperator.NE,
)
ORDERED = (BinaryOperator.LT, BinaryOperator.LE, BinaryOperator.GT, BinaryOperator.GE)

#: Small shared value domain so cached and probed atoms collide often
#: (including on values matching zero rows — empty intervals).
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
    mgr = SmartIndexManager(compress=False, semantic=True)
    for i, (op, v) in enumerate(cached):
        atom = AtomicPredicate("c", op, v)
        mgr.insert("b", atom, atom.evaluate(col), now=float(i) * 1e-3)
    return mgr


def _single(atom):
    return [Clause((atom,))]


# -- Hypothesis: semantic answers vs. scalar ground truth ------------------


@given(
    col=plain_columns,
    cached=st.lists(st.tuples(st.sampled_from(OPS[:5]), values), max_size=8),
    probe_op=st.sampled_from(OPS),
    probe_value=values,
)
def test_full_cover_bit_identical_without_nan(col, cached, probe_op, probe_value):
    """Without NaN every path — exact, complement, derived — is exact."""
    mgr = _manager(col, cached)
    probe = AtomicPredicate("c", probe_op, probe_value)
    mask, missing, residuals = mgr.cover("b", _single(probe), now=1.0)
    if mask is not None and not missing and not residuals:
        np.testing.assert_array_equal(mask.to_bool_array(), probe.evaluate(col))


@given(
    col=nan_columns,
    cached_ops=st.sets(st.sampled_from(ORDERED), min_size=2),
    v=values,
)
def test_derived_eq_bit_identical_with_nan(col, cached_ops, v):
    """EQ derived from positively stored ordered vectors is NaN-exact.

    Only ordered atoms are cached, so an EQ probe cannot be an exact or
    complement hit — any returned mask came from bitmap composition.
    """
    mgr = _manager(col, [(op, v) for op in cached_ops])
    probe = AtomicPredicate("c", BinaryOperator.EQ, v)
    before = mgr.stats.subsumption_hits
    mask, missing, residuals = mgr.cover("b", _single(probe), now=1.0)
    if mask is not None and not missing and not residuals:
        assert mgr.stats.subsumption_hits == before + 1
        np.testing.assert_array_equal(mask.to_bool_array(), probe.evaluate(col))


@given(col=nan_columns, v=values, widen=st.integers(min_value=0, max_value=4))
def test_residual_candidate_superset_and_scatter_exact(col, v, widen):
    """Candidate masks never drop a qualifying row, and evaluating the
    residual on candidate rows then scattering into zeros reproduces the
    full-column evaluation bit-for-bit (the executor's partial scan)."""
    wide = AtomicPredicate("c", BinaryOperator.LT, v + widen)
    mgr = _manager(col, [(BinaryOperator.LT, v + widen)])
    probe = AtomicPredicate("c", BinaryOperator.LT, v)
    mask, missing, residuals = mgr.cover("b", _single(probe), now=1.0)
    truth = probe.evaluate(col)
    if probe.key == wide.key:
        return  # widen == 0: plain exact hit, covered elsewhere
    assert mask is None
    if not residuals:
        # Candidate too wide to pay off — the clause fell back to a scan.
        assert len(missing) == 1
        return
    (res,) = residuals
    cand = res.mask.to_bool_array()
    assert not np.any(truth & ~cand)  # superset: no true row missed
    assert res.fraction == pytest.approx(cand.sum() / len(col))
    idx = np.flatnonzero(cand)
    scattered = np.zeros(len(col), dtype=bool)
    scattered[idx] = probe.evaluate(col[idx])
    np.testing.assert_array_equal(scattered, truth)


@given(col=nan_columns, v=values)
def test_complement_interaction_with_nan(col, v):
    """NE via the EQ complement is NaN-exact; an entry inserted without
    ``nan_rows`` hands ordered probes its bit-NOT (Fig 7), which differs
    from scalar evaluation on NaN rows — the leaf passes the flag, see
    the test below."""
    eq = AtomicPredicate("c", BinaryOperator.EQ, v)
    mgr = _manager(col, [(BinaryOperator.EQ, v)])
    ne = AtomicPredicate("c", BinaryOperator.NE, v)
    mask, missing, residuals = mgr.cover("b", _single(ne), now=1.0)
    assert mask is not None and not missing and not residuals
    np.testing.assert_array_equal(mask.to_bool_array(), ne.evaluate(col))

    mgr2 = _manager(col, [(BinaryOperator.GT, v)])
    le = AtomicPredicate("c", BinaryOperator.LE, v)
    mask2, missing2, residuals2 = mgr2.cover("b", _single(le), now=1.0)
    assert mask2 is not None and not missing2 and not residuals2
    gt = AtomicPredicate("c", BinaryOperator.GT, v)
    np.testing.assert_array_equal(mask2.to_bool_array(), ~gt.evaluate(col))


@given(col=nan_columns, v=values, op=st.sampled_from(OPS), semantic=st.booleans())
def test_no_ordered_complement_over_nan_rows(col, v, op, semantic):
    """Given ``nan_rows``, an ordered probe does not take the bit-NOT of
    its complement's vector (it would add the NaN rows), and neither does
    an entry derived from such vectors; EQ and NE still answer each other."""
    nan_rows = bool(np.isnan(col).any())
    mgr = SmartIndexManager(compress=False, semantic=semantic)
    stored = AtomicPredicate("c", op, v).complement()
    mgr.insert("b", stored, stored.evaluate(col), now=0.0, nan_rows=nan_rows)
    probe = stored.complement()
    if semantic:
        mask, missing, residuals = mgr.cover("b", _single(probe), now=1.0)
        vec = mask if not missing and not residuals else None
    else:
        vec = mgr.lookup_atom("b", probe, now=1.0)
    exact = not nan_rows or probe.bounds is None or stored.bounds is None
    assert (vec is not None) == exact
    if vec is not None:
        np.testing.assert_array_equal(vec.to_bool_array(), probe.evaluate(col))
    if semantic and op in ORDERED:
        # LT / GT and EQ at v derive LE / GE, which inherit the flag.
        mgr = SmartIndexManager(compress=False, semantic=True)
        strict = AtomicPredicate("c", BinaryOperator.LT if op in ORDERED[:2] else BinaryOperator.GT, v)
        for atom in (strict, AtomicPredicate("c", BinaryOperator.EQ, v)):
            mgr.insert("b", atom, atom.evaluate(col), now=0.0, nan_rows=nan_rows)
        closed = AtomicPredicate("c", NEGATED_CLOSED[strict.op], v)
        mgr.cover("b", _single(closed), now=1.0)  # derives and stores it
        opposite = closed.complement()
        mask, missing, residuals = mgr.cover("b", _single(opposite), now=2.0)
        if not missing and not residuals:
            np.testing.assert_array_equal(mask.to_bool_array(), opposite.evaluate(col))


NEGATED_CLOSED = {BinaryOperator.LT: BinaryOperator.LE, BinaryOperator.GT: BinaryOperator.GE}


@given(
    col=nan_columns,
    cached=st.lists(st.tuples(st.sampled_from(OPS[:5]), values), max_size=8),
    probe_op=st.sampled_from(OPS),
    probe_value=values,
)
def test_materialized_derivations_stay_exact(col, cached, probe_op, probe_value):
    """Re-probing after derivations/materializations must agree with the
    first answer: inserted derived vectors are ordinary exact entries."""
    mgr = _manager(col, cached)
    probe = AtomicPredicate("c", probe_op, probe_value)
    first = mgr.cover("b", _single(probe), now=1.0)
    second = mgr.cover("b", _single(probe), now=2.0)
    if first[0] is not None and not first[1] and not first[2]:
        assert second[0] is not None and not second[1] and not second[2]
        np.testing.assert_array_equal(
            first[0].to_bool_array(), second[0].to_bool_array()
        )


def test_empty_cache_and_flag_gate():
    mgr = SmartIndexManager(semantic=True)
    probe = AtomicPredicate("c", BinaryOperator.LT, 3)
    mask, missing, residuals = mgr.cover("b", _single(probe), now=0.0)
    assert mask is None and residuals == [] and len(missing) == 1

    # Only the semantic manager answers with candidates: the exact one
    # leaves the narrower range missing, its wider vector untouched.
    plain = SmartIndexManager()
    wider = AtomicPredicate("c", BinaryOperator.LT, 5)
    plain.insert("b", wider, np.array([True, True, False]), now=0.0)
    mask, missing, residuals = plain.cover("b", _single(probe), now=0.0)
    assert mask is None and residuals == [] and len(missing) == 1


def test_cover_semantic_tags_span():
    """The leaf tags a traced attempt's ``index_probe`` with what the
    semantic cover answered: a narrower range over a cached one is a
    residual clause."""
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=1,
            nodes_per_rack=2,
            leaf=LeafConfig(index_semantic=True),
        )
    )
    cluster.load_table(
        "T",
        Schema.of(c=DataType.FLOAT64),
        {"c": np.arange(64, dtype=np.float64)},
        storage="storage-a",
        block_rows=32,
    )
    cluster.query("SELECT COUNT(*) FROM T WHERE c < 6")
    job = cluster.query_job("SELECT COUNT(*) FROM T WHERE c < 4", options=JobOptions(trace=True))
    probes = job.trace.find("index_probe")
    assert probes
    for span in probes:
        for key in ("atom_hits", "complement_hits", "atom_misses",
                    "subsumption_hits", "residual_clauses"):
            assert key in span.tags
    residual = [s for s in probes if s.tags["residual_clauses"]]
    assert residual
    for span in residual:
        assert span.tags["residual_clauses"] == 1
        assert 0.0 < span.tags["residual_fraction"] <= 1.0


# -- cost-aware cache management ------------------------------------------


def _insert(mgr, block, column, v, mask, now, saved_s):
    atom = AtomicPredicate(column, BinaryOperator.LT, v)
    mgr.insert(block, atom, mask, now=now, saved_s=saved_s)
    return atom


def test_eviction_takes_lowest_benefit_per_byte():
    col = np.arange(256, dtype=np.float64)
    mask = col < 100
    mgr = SmartIndexManager(memory_budget_bytes=1, compress=False, semantic=True)
    mgr.memory_budget_bytes = 2 * (32 + 96) + 10  # room for ~2 entries
    cheap = _insert(mgr, "b", "c", 1, mask, 0.0, saved_s=0.001)
    rich = _insert(mgr, "b", "c", 2, mask, 0.1, saved_s=1.0)
    _insert(mgr, "b", "c", 3, mask, 0.2, saved_s=0.5)
    keys = {e.predicate_key for e in mgr.entries_for_block("b")}
    assert cheap.key not in keys  # lowest saved_s per byte went first
    assert rich.key in keys
    assert mgr.stats.evictions_cost >= 1


def test_admission_rejects_worthless_insert_into_hot_cache():
    col = np.arange(256, dtype=np.float64)
    mask = col < 100
    mgr = SmartIndexManager(memory_budget_bytes=1, compress=False, semantic=True)
    mgr.memory_budget_bytes = 2 * (32 + 96) + 10
    a = _insert(mgr, "b", "c", 1, mask, 0.0, saved_s=1.0)
    b = _insert(mgr, "b", "c", 2, mask, 0.1, saved_s=1.0)
    # Reuse both so they out-score any fresh entry.
    mgr.lookup_atom("b", a, now=0.2)
    mgr.lookup_atom("b", b, now=0.2)
    junk = _insert(mgr, "b", "c", 3, mask, 0.3, saved_s=1e-9)
    keys = {e.predicate_key for e in mgr.entries_for_block("b")}
    assert junk.key not in keys  # never displaced a proven entry
    assert {a.key, b.key} <= keys
    assert mgr.stats.admission_rejects >= 1


def test_probation_promotion_is_scan_resistant():
    col = np.arange(256, dtype=np.float64)
    mask = col < 100
    mgr = SmartIndexManager(memory_budget_bytes=1, compress=False, semantic=True)
    mgr.memory_budget_bytes = 2 * (32 + 96) + 10
    touched = _insert(mgr, "b", "c", 1, mask, 0.0, saved_s=0.5)
    untouched = _insert(mgr, "b", "c", 2, mask, 0.1, saved_s=0.5)
    mgr.lookup_atom("b", touched, now=0.2)  # promote probation → protected
    _insert(mgr, "b", "c", 3, mask, 0.3, saved_s=0.5)
    keys = {e.predicate_key for e in mgr.entries_for_block("b")}
    assert touched.key in keys
    assert untouched.key not in keys  # the one-touch scan victim


def test_prefer_unprefer_uses_secondary_index():
    col = np.arange(64, dtype=np.float64)
    mgr = SmartIndexManager(compress=False, semantic=True)
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


def test_preferred_entries_survive_cost_eviction():
    col = np.arange(256, dtype=np.float64)
    mask = col < 100
    mgr = SmartIndexManager(memory_budget_bytes=1, compress=False, semantic=True)
    mgr.memory_budget_bytes = 2 * (32 + 96) + 10
    pinned = _insert(mgr, "b", "c", 1, mask, 0.0, saved_s=1e-9)
    mgr.prefer_predicate(pinned.key)
    for i, v in enumerate((2, 3, 4, 5)):
        _insert(mgr, "b", "c", v, mask, 0.1 * (i + 1), saved_s=1.0)
    keys = {e.predicate_key for e in mgr.entries_for_block("b")}
    assert pinned.key in keys  # preference trumps its terrible score


def test_benefit_snapshot_feeds_advisor_ranking():
    col = np.arange(128, dtype=np.float64)
    mgr = SmartIndexManager(compress=False, semantic=True)
    hot = _insert(mgr, "b", "c", 5, col < 5, 0.0, saved_s=0.25)
    _insert(mgr, "b", "c", 9, col < 9, 0.0, saved_s=0.25)
    for _ in range(4):
        mgr.lookup_atom("b", hot, now=1.0)
    snapshot = mgr.benefit_snapshot()
    assert snapshot[hot.key] > 0.0

    class Entry:
        tables = ("T",)

        def __init__(self, key):
            self.predicate_keys = (key,)

    advisor = IndexAdvisor(Catalog())
    history = [Entry(hot.key)] * 3 + [Entry("c < 9")] * 3
    ranked = advisor.recommend(history, observed=snapshot)
    assert ranked[0].predicate_key == hot.key
    assert ranked[0].observed_benefit_s == pytest.approx(snapshot[hot.key])


# -- executor integration: fractional I/O charging -------------------------


def test_residual_scan_charges_fractional_io_through_cluster():
    def build(semantic):
        cfg = FeisuConfig(
            datacenters=1, racks_per_datacenter=1, nodes_per_rack=4,
            leaf=LeafConfig(enable_smartindex=True, index_semantic=semantic),
        )
        cluster = FeisuCluster(cfg)
        n = 4000
        rng = np.random.default_rng(7)
        cluster.load_table(
            "T",
            Schema.of(a=DataType.INT64, b=DataType.FLOAT64),
            {"a": rng.integers(0, 50, n), "b": rng.random(n)},
            storage="storage-a",
            block_rows=800,
            scale_factor=1000.0,
        )
        return cluster

    wide, tight = "SELECT COUNT(*) FROM T WHERE a < 10", "SELECT COUNT(*) FROM T WHERE a < 7"
    plain = build(semantic=False)
    plain.query(wide)
    full = plain.query_job(tight).stats.io_bytes_modeled

    sem = build(semantic=True)
    sem.query(wide)
    partial = sem.query_job(tight).stats.io_bytes_modeled
    stats = sem.aggregate_index_stats()
    assert stats.residual_hits > 0
    assert partial < full  # candidate-mask scan reads a fraction of the column
    # Exactness through the whole stack: same answer both ways.
    assert plain.query(tight).rows() == sem.query(tight).rows()


# -- superset_candidates, read off bounds (S79) ---------------------------------


_GRID_VALUES = [0, 1, -1, 2, 2.0, 2.5, 2**53, 2**53 + 1, float(2**53), float("inf")]


@settings(max_examples=300, deadline=None)
@given(
    cached=st.lists(st.tuples(st.sampled_from(OPS), st.sampled_from(_GRID_VALUES)), max_size=10),
    probe_op=st.sampled_from(OPS),
    probe_value=st.sampled_from(_GRID_VALUES),
)
def test_superset_candidates_are_the_tightest_on_a_value_grid(cached, probe_op, probe_value):
    """Every candidate holds for every grid point the probe holds for (a
    bit-NOT adds NaN); per cached operator and inversion, the one returned
    is the smallest such set whenever one exists among finite values."""
    grid = value_grid(_GRID_VALUES)
    registry = IntervalRegistry()
    atoms = {}
    for op, v in cached:
        atom = AtomicPredicate("c", op, v)
        registry.add("b", atom)
        atoms[atom.key] = atom
    probe = AtomicPredicate("c", probe_op, probe_value)
    probe_set = admitted(probe, grid)
    everything = set(range(len(grid)))

    def holds(atom, invert):
        return everything - admitted(atom, grid) if invert else admitted(atom, grid)

    found = registry.superset_candidates("b", probe)
    for cand in found:
        assert probe_set <= holds(atoms[cand.predicate_key], cand.invert), cand
    if not probe_set or probe.bounds is None or probe_value == float("inf"):
        return
    for op in ORDERED:
        for invert in (False, True):
            family = [a for a in atoms.values() if a.op is op and a.value != float("inf")]
            if not invert and probe.key in atoms and atoms[probe.key].op is op:
                continue  # the probe's own entry is its exact hit, never a candidate
            supersets = [a for a in family if probe_set <= holds(a, invert)]
            returned = [c for c in found if c.invert is invert and atoms[c.predicate_key].op is op]
            if not supersets:
                continue
            assert len(returned) == 1, (op, invert, found)
            tightest = holds(atoms[returned[0].predicate_key], invert)
            assert all(tightest <= holds(a, invert) for a in supersets), (op, invert)
