"""Per-replica heterogeneous physical layouts — "Trojan" replicas (S54).

Replicas in Feisu (and in the storage substrates underneath it) are
byte-identical copies, so every scan pays the same cost no matter which
copy it reads.  "Only Aggressive Elephants are Fast Elephants" showed
that this redundancy is free performance: give each replica of a block a
*different* physical design — a sort order, a column-subset projection,
an attached per-replica index, a join-co-partitioned clustering — and
route each task to the best-fitting copy.

This module supplies:

* :class:`LayoutSpec` — the per-replica physical design (primary sort
  column, column-subset projection, attached B+ tree column,
  co-partitioned join column), serialized into the replica's variant
  metadata so the storage layer stays the single source of truth;
* :func:`apply_layout` — the pure rewrite: stable re-sort, column
  subset, re-encode through the ordinary :class:`Block` codecs;
* :class:`LayoutDaemon` — rides the :class:`TieringDaemon` pattern: a
  predicate/join census (leaf scan hooks + attached
  :class:`~repro.client.history.QueryHistory`) plus the shared
  :class:`HeatTracker` decide which layouts each hot block's replicas
  deserve, then the daemon rewrites **one replica per block per cycle**
  through the idempotent publish-after-write path.  The base payload in
  ``StorageSystem._files`` is never touched, so a readable copy always
  exists and the replication floor holds by construction.

The scheduler scores each candidate replica with the existing
benefit-per-byte shape (sorted replica → binary-search range pruning,
column-subset replica → smaller read, attached index → covered probe),
and the leaf charges the chosen replica's actual cheaper I/O — the
variant block's own encoded chunk sizes plus sorted-range fractional
charging in the executor.

Everything is flag-gated behind ``LeafConfig.enable_layouts`` — with the
flag off the daemon is never constructed and no simulation event, trace
tag or figure byte changes.

Correctness note: SmartIndex bitvectors and the B+ tree baseline are
keyed by ``block_id`` and assume the *base* row order.  A variant offers
the scan its own access paths instead: the spec itself (its sort order,
:meth:`LayoutSpec.probe`), then a
:class:`~repro.index.btree.BTreeIndex` on its attached column, which the
leaf keeps per spec so that its trees hold that design's row order.  A
row slice is defined on base row order: the leaf reads it from the base
payload, and every access path declines it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.columnar.block import Block
from repro.columnar.schema import Schema
from repro.errors import FaultInjectedError, PathError
from repro.index.btree import BTreeIndex, sorted_span
from repro.planner.cnf import AtomicPredicate, Clause, ConjunctiveForm
from repro.planner.cost import OPS_PER_DECODE, CostModel
from repro.sim.events import Event, Process, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TrafficClass
from repro.sql.ast import BinaryOperator, Column
from repro.storage.router import StorageRouter
from repro.storage.tiering import HeatTracker

__all__ = ["LayoutSpec", "LayoutDaemon", "LayoutStats", "apply_layout"]

#: Replica rewrites started per cycle, at most.
MAX_REWRITES_PER_CYCLE = 4
#: Hottest paths a cycle considers, and frequent predicates / columns it
#: reads from each attached query history.
CENSUS_TOP_K = 32


@dataclass(frozen=True)
class LayoutSpec:
    """One replica's physical design.

    All-``None`` means the base layout.  ``columns`` is a projection: the
    variant only stores those chunks, so it can only serve tasks whose
    column set it covers (:meth:`serves`).
    """

    #: Rows stably sorted by this column (enables range pruning).
    sort_column: Optional[str] = None
    #: Column-subset projection; None keeps every column.
    columns: Optional[Tuple[str, ...]] = None
    #: Attached per-replica B+ tree over this column (covered probes).
    index_column: Optional[str] = None
    #: Rows clustered by this join column (cache-friendly probe side;
    #: the executor charges the cheaper co-partitioned join rate).
    copartition_column: Optional[str] = None

    @property
    def is_base(self) -> bool:
        return (
            self.sort_column is None
            and self.columns is None
            and self.index_column is None
            and self.copartition_column is None
        )

    @property
    def order_column(self) -> Optional[str]:
        """The column the variant's rows are physically ordered by."""
        return self.sort_column or self.copartition_column

    def serves(self, columns: Sequence[str]) -> bool:
        """Can this variant answer a scan reading ``columns``?"""
        return self.columns is None or set(columns) <= set(self.columns)

    #: A replica's design learns nothing from a scan.
    learn = None

    def probe(self, key, clauses: Sequence[Clause], scope, now: float):
        """The sort order as a scan's access path; declines a row slice.

        It answers no clause: a binary search over the sort column
        bounds the candidate range (:func:`sorted_candidate_rows`), so a
        read of that column pays its chunk in full plus only the
        candidates' share of every other chunk.  Evaluation stays exact
        over all rows — only the charge shrinks.
        """
        block, rows = scope
        column = self.sort_column
        if column is None or rows is not None:
            return None, clauses, (), None

        def charge(report, read, payload, left) -> bool:
            candidates = sorted_candidate_rows(block, column, clauses) if column in read else None
            if candidates is None:
                return False
            fraction = candidates / max(1, block.num_rows)
            rest = [c for c in read if c != column]
            report.io_bytes += block.column_bytes([column]) + int(
                round(block.column_bytes(rest) * fraction)
            )
            report.cpu_ops += (
                OPS_PER_DECODE * block.num_rows
                + OPS_PER_DECODE * candidates * len(rest)
                + 64.0  # the binary search itself
            )
            return True

        return None, clauses, (), charge

    def describe(self) -> str:
        parts: List[str] = []
        if self.sort_column:
            parts.append(f"sorted({self.sort_column})")
        if self.copartition_column:
            parts.append(f"copart({self.copartition_column})")
        if self.columns is not None:
            parts.append(f"cols({','.join(self.columns)})")
        if self.index_column:
            parts.append(f"btree({self.index_column})")
        return "+".join(parts) if parts else "base"

    def narrowed_to(self, names: Sequence[str]) -> "LayoutSpec":
        """Drop aspects referring to columns the block doesn't have.

        The census works from query text and history; a stale entry may
        name a column a block never stored.  Order/index columns are
        force-kept inside the projection so the variant can always
        evaluate its own ordering predicate.
        """
        avail = set(names)
        cols = self.columns
        if cols is not None:
            kept = set(cols) & avail
            for extra in (self.sort_column, self.index_column, self.copartition_column):
                if extra is not None and extra in avail:
                    kept.add(extra)
            cols = None if kept == avail else tuple(sorted(kept))

        def _ok(c: Optional[str]) -> bool:
            return c is not None and c in avail and (cols is None or c in cols)

        return LayoutSpec(
            sort_column=self.sort_column if _ok(self.sort_column) else None,
            columns=cols,
            index_column=self.index_column if _ok(self.index_column) else None,
            copartition_column=(
                self.copartition_column if _ok(self.copartition_column) else None
            ),
        )

    # -- variant-metadata serialization (storage is the source of truth) --

    def to_meta(self) -> dict:
        return {
            "spec": {
                "sort": self.sort_column,
                "columns": list(self.columns) if self.columns is not None else None,
                "index": self.index_column,
                "copartition": self.copartition_column,
            }
        }

    @classmethod
    def from_meta(cls, meta: Optional[dict]) -> Optional["LayoutSpec"]:
        if not meta or "spec" not in meta:
            return None
        s = meta["spec"]
        cols = s.get("columns")
        return cls(
            sort_column=s.get("sort"),
            columns=tuple(cols) if cols is not None else None,
            index_column=s.get("index"),
            copartition_column=s.get("copartition"),
        )


def apply_layout(block: Block, spec: LayoutSpec) -> Block:
    """Rewrite ``block`` into ``spec``'s physical design.

    Pure and deterministic: stable argsort by the order column, project
    to the column subset, and re-encode through the standard codecs —
    the variant keeps the block id and scale factor so every downstream
    accounting path works unchanged.
    """
    spec = spec.narrowed_to([f.name for f in block.schema.fields])
    keep = [
        f for f in block.schema.fields if spec.columns is None or f.name in spec.columns
    ]
    arrays = {f.name: block.column(f.name) for f in keep}
    order_col = spec.order_column
    if order_col is not None and order_col in arrays:
        # Stable sort: equal-key rows keep their base relative order, so
        # the rewrite is a deterministic permutation.
        order = np.argsort(arrays[order_col], kind="stable")
        arrays = {name: values[order] for name, values in arrays.items()}
    return Block.from_arrays(
        block.block_id, Schema(keep), arrays, scale_factor=block.scale_factor
    )


def base_join_columns(plan) -> Tuple[str, ...]:
    """Base-table columns appearing in the plan's broadcast-join
    conditions — the layout census's join-column signal."""
    analyzed = plan.analyzed
    out: Set[str] = set()
    for bc in plan.broadcasts:
        if bc.condition is None:
            continue
        stack = [bc.condition]
        while stack:
            node = stack.pop()
            if isinstance(node, Column):
                res = analyzed.resolutions.get((node.table, node.name))
                if res is not None and res.binding == analyzed.base_binding:
                    out.add(res.field.name)
            else:
                stack.extend(node.children())
    return tuple(sorted(out))


@dataclass
class _PathCensus:
    """What queries actually do to one block path."""

    #: Range/equality predicate column frequencies (sortable/indexable).
    predicate_cols: Counter = field(default_factory=Counter)
    #: Full read-set frequencies (the projection signal).
    read_cols: Counter = field(default_factory=Counter)
    #: Broadcast-join key frequencies (the co-partition signal).
    join_cols: Counter = field(default_factory=Counter)
    scans: int = 0


@dataclass
class LayoutStats:
    cycles: int = 0
    rewrites: int = 0
    failed_rewrites: int = 0
    rewritten_bytes: int = 0
    #: Reads actually served from a non-base variant.
    variant_reads: int = 0
    #: Variant serves declined because the projection missed a column.
    ineligible_reads: int = 0


class LayoutDaemon:
    """Background per-replica layout rewriter on the simulated clock.

    One daemon serves the whole cluster: leaves call :meth:`record_scan`
    from their execution path and :meth:`payload_for` when reading, the
    scheduler calls :meth:`scan_seconds` / :meth:`replica_bytes` for
    layout-aware placement, and clients attach their
    :class:`~repro.client.history.QueryHistory` so the §IV-A log
    analysis feeds the census too.

    Replica 0 of every block is **never** rewritten — with the base
    payload authoritative in storage this is belt on top of braces, but
    it keeps one replica cheap to repair from and makes the heterogeneity
    explicit: copies *diverge*, the block doesn't.
    """

    def __init__(
        self,
        sim: Simulator,
        net: NetworkTopology,
        router: StorageRouter,
        heat: Optional[HeatTracker] = None,
        cost_model: Optional[CostModel] = None,
        period_s: float = 45.0,
        heat_threshold: float = 2.0,
        min_evidence: int = 2,
    ):
        self.sim = sim
        self.net = net
        self.router = router
        self.heat = heat if heat is not None else HeatTracker()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.period_s = period_s
        self.heat_threshold = heat_threshold
        self.min_evidence = min_evidence
        #: Optional placement-eligibility predicate over node addresses
        #: (S55): when wired to membership drain/liveness state the
        #: daemon stops planning rewrites onto nodes that are dead or
        #: draining — their replicas are being evacuated, variants and
        #: all, not improved in place.
        self.placement_ok = None
        self.stats = LayoutStats()
        self._census: Dict[str, _PathCensus] = {}
        self._histories: List = []
        #: History-derived column frequencies, rebuilt each cycle (the
        #: history recomputes over its full log; accumulating would
        #: double-count).
        self._history_pred: Counter = Counter()
        self._history_reads: Counter = Counter()
        self._process: Optional[Process] = None

    # -- census (leaf + history facing) -----------------------------------

    def record_scan(
        self,
        path: str,
        cnf: ConjunctiveForm,
        columns: Sequence[str],
        join_columns: Sequence[str] = (),
        reader: Optional[NodeAddress] = None,
        nbytes: int = 0,
        now: float = 0.0,
    ) -> None:
        """Called by leaves per executed scan task, original catalog path."""
        self.heat.record(path, nbytes, reader=reader, now=now)
        census = self._census.get(path)
        if census is None:
            census = self._census[path] = _PathCensus()
        census.scans += 1
        census.read_cols.update(columns)
        census.join_cols.update(join_columns)
        for clause in cnf.clauses:
            # Only single-atom residual-free clauses pin down one column
            # a sort order or attached index can serve.
            if len(clause.atoms) == 1 and not clause.residuals:
                atom = clause.atoms[0]
                if atom.bounds is not None:
                    census.predicate_cols[atom.column] += 1

    def attach_history(self, history) -> None:
        """Wire a client's QueryHistory into the census (§IV-A signal)."""
        if history not in self._histories:
            self._histories.append(history)

    def _ingest_histories(self) -> None:
        self._history_pred = Counter()
        self._history_reads = Counter()
        for history in self._histories:
            for key, count in history.frequent_predicates(top=CENSUS_TOP_K):
                parts = key.split()
                if len(parts) < 3 or parts[0] == "NOT":
                    continue
                column, op = parts[0], parts[1]
                if op in ("<", "<=", ">", ">=", "="):
                    self._history_pred[column] += count
            for column, count in history.frequent_columns(top=CENSUS_TOP_K):
                self._history_reads[column] += count

    # -- read-path hooks (leaf facing) -------------------------------------

    def serving_replica(self, system, inner: str, reader: NodeAddress):
        """Which replica a read from ``reader`` is served by: the local
        copy when the reader holds one, else the nearest replica — the
        same rule :meth:`LeafServer._charge_io` prices."""
        try:
            locations = system.locations(inner)
        except PathError:
            return None
        if not locations:
            return None
        if reader in locations:
            return reader
        return min(locations, key=lambda addr: self.net.distance(addr, reader))

    def spec_at(self, system, inner: str, node) -> Optional[LayoutSpec]:
        if node is None:
            return None
        return LayoutSpec.from_meta(system.replica_meta(inner, node))

    def payload_for(
        self, system, inner: str, node, columns: Sequence[str]
    ) -> Tuple[bytes, Optional[LayoutSpec]]:
        """Bytes a read served by ``node`` returns plus the layout they
        carry — base payload when no variant is published or the variant's
        projection can't cover ``columns``."""
        if node is not None:
            spec = self.spec_at(system, inner, node)
            if spec is not None:
                if spec.serves(columns):
                    variant = system.replica_variant(inner, node)
                    if variant is not None:
                        self.stats.variant_reads += 1
                        return variant, spec
                else:
                    self.stats.ineligible_reads += 1
        return system.read(inner), None

    # -- placement scoring (scheduler facing) ------------------------------

    def replica_bytes(self, task, addr) -> float:
        """Modeled bytes a scan of ``task.columns`` reads from ``addr``'s
        replica — the variant's own encoded chunk sizes when it serves
        the column set, the catalog estimate otherwise."""
        base = task.block.bytes_for(task.columns) * task.block.scale_factor
        try:
            system, inner = self.router.resolve(task.block.path)
        except PathError:
            return base
        meta = system.replica_meta(inner, addr)
        spec = LayoutSpec.from_meta(meta)
        if spec is None or not spec.serves(task.columns):
            return base
        column_bytes = meta.get("column_bytes", {})
        if not column_bytes:
            return base
        return (
            sum(column_bytes.get(c, 0) for c in task.columns)
            * task.block.scale_factor
        )

    def scan_seconds(self, task, cnf: ConjunctiveForm, leaf_address) -> float:
        """Placement estimate for ``leaf_address`` running ``task``, priced
        against the layout of the replica that would serve the read.

        Sorted replica → binary-search range pruning (fractional read),
        column-subset replica → smaller read, attached index → covered
        probe; non-holders additionally pay the variant-sized transfer.
        """
        try:
            system, inner = self.router.resolve(task.block.path)
        except PathError:
            return self.cost_model.task_seconds(task, cnf)
        serving = self.serving_replica(system, inner, leaf_address)
        spec = self.spec_at(system, inner, serving)
        if spec is not None and not spec.serves(task.columns):
            spec = None
        est = self._layout_task_seconds(task, cnf, system, serving, spec)
        if serving is not None and serving != leaf_address:
            est += self.net.transfer_time_estimate(
                serving, leaf_address, int(self.replica_bytes(task, serving))
            )
        return est

    def _layout_task_seconds(self, task, cnf, system, serving, spec) -> float:
        profile = system.profile
        if spec is None:
            return self.cost_model.task_seconds(
                task,
                cnf,
                bandwidth_factor=profile.bandwidth_factor,
                extra_latency_s=profile.first_byte_latency_s,
            )
        if spec.index_column is not None and BTreeIndex(spec.index_column).covers(cnf.clauses):
            # Covered probe: same shape the SmartIndex full-cover path uses.
            return self.cost_model.index_cpu_seconds(task, max(1, len(cnf.clauses)))
        nbytes = self.replica_bytes(task, serving)
        if spec.sort_column is not None and spec.sort_column in task.columns:
            _, inner = self.router.resolve(task.block.path)
            meta = system.replica_meta(inner, serving) or {}
            fraction = _meta_range_fraction(meta, cnf, spec.sort_column)
            if fraction < 1.0:
                sort_bytes = meta.get("column_bytes", {}).get(
                    spec.sort_column, 0
                ) * task.block.scale_factor
                nbytes = sort_bytes + fraction * max(0.0, nbytes - sort_bytes)
        return self.cost_model.sized_task_seconds(
            nbytes,
            task.block.modeled_rows,
            cnf,
            len(task.columns),
            bandwidth_factor=profile.bandwidth_factor,
            extra_latency_s=profile.first_byte_latency_s,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.every(self, self.run_once, "layout-daemon", "layout-cycle")

    # -- one decision cycle ------------------------------------------------

    def desired_layouts(self, path: str) -> Dict[NodeAddress, LayoutSpec]:
        """The per-replica layout plan the census currently justifies for
        ``path`` (replica 0 excluded — it stays base)."""
        try:
            system, inner = self.router.resolve(path)
        except PathError:
            return {}
        if not system.exists(inner):
            return {}
        replicas = system.locations(inner)
        if len(replicas) < 2:
            return {}
        census = self._census.get(path, _PathCensus())
        pred_cols = census.predicate_cols + self._history_pred
        read_cols = census.read_cols + self._history_reads
        pred = _top_with_evidence(pred_cols, self.min_evidence)
        join = _top_with_evidence(census.join_cols, self.min_evidence)

        subset: Optional[Tuple[str, ...]] = None
        if read_cols:
            wanted = set(read_cols)
            wanted.update(c for c in (pred, join) if c is not None)
            subset = tuple(sorted(wanted))

        desired: Dict[NodeAddress, LayoutSpec] = {}
        if pred is not None:
            # Replica 1: sorted projection on the dominant predicate
            # column — binary-search range pruning plus a smaller read.
            desired[replicas[1]] = LayoutSpec(sort_column=pred, columns=subset)
        if len(replicas) > 2:
            if join is not None and join != pred:
                # Replica 2: join-co-partitioned, with the predicate
                # column's attached B+ tree for covered probes.
                desired[replicas[2]] = LayoutSpec(
                    columns=subset, index_column=pred, copartition_column=join
                )
            elif pred is not None and subset is not None:
                desired[replicas[2]] = LayoutSpec(columns=subset, index_column=pred)
        return {
            node: spec
            for node, spec in desired.items()
            if not spec.is_base
            and (self.placement_ok is None or self.placement_ok(node))
        }

    def run_once(self) -> Generator[Event, None, None]:
        now = self.sim.now
        self.stats.cycles += 1
        self._ingest_histories()
        rewrites = 0
        for path, heat in self.heat.hottest(now, CENSUS_TOP_K):
            if rewrites >= MAX_REWRITES_PER_CYCLE:
                break
            if heat < self.heat_threshold:
                continue
            try:
                system, inner = self.router.resolve(path)
            except PathError:
                continue
            if not system.exists(inner):
                continue
            for node, spec in self.desired_layouts(path).items():
                current = self.spec_at(system, inner, node)
                if current == spec:
                    continue  # already published: adopt, don't re-copy
                try:
                    done = yield from self._rewrite(system, inner, node, spec)
                except FaultInjectedError:
                    self.stats.failed_rewrites += 1
                    break
                if done:
                    rewrites += 1
                    # One replica of a block per cycle: the block's other
                    # copies stay readable at their current layout while
                    # this one settles.
                    break

    def _rewrite(
        self, system, inner: str, node, spec: LayoutSpec
    ) -> Generator[Event, None, bool]:
        """Rewrite one replica into ``spec`` via publish-after-write.

        The base payload is read (always available), transformed, shipped
        to the replica holder, and only then published as that node's
        variant.  A fault killing the transfer leaves no published
        variant — the replica keeps serving its previous bytes and the
        next cycle retries from scratch; an unchanged base plus the
        deterministic rewrite make the retry idempotent.
        """
        incarnation = system.incarnation(inner)
        base = system.read(inner)
        block = Block.from_bytes(base)
        spec = spec.narrowed_to([f.name for f in block.schema.fields])
        if spec.is_base:
            return False
        variant = apply_layout(block, spec)
        data = variant.to_bytes()
        meta = spec.to_meta()
        meta["column_bytes"] = {
            name: chunk.encoded_bytes for name, chunk in variant.chunks.items()
        }
        meta["num_rows"] = variant.num_rows
        order_col = spec.order_column
        if order_col is not None and order_col in variant.chunks:
            stats = variant.chunks[order_col].stats
            if _json_scalar(stats.min_value) is not None:
                meta["order_range"] = [
                    _json_scalar(stats.min_value),
                    _json_scalar(stats.max_value),
                ]
        sources = [addr for addr in system.locations(inner) if addr != node]
        source = (
            min(sources, key=lambda s: self.net.distance(s, node)) if sources else node
        )
        yield self.net.transfer(source, node, len(data), TrafficClass.WRITE)
        if system.incarnation(inner) != incarnation:
            return False  # block rewritten or deleted while the rewrite was in flight
        if node not in system.locations(inner):
            return False  # replica lost mid-rewrite; nothing to publish onto
        system.set_replica_variant(inner, node, data, meta=meta)
        self.stats.rewrites += 1
        self.stats.rewritten_bytes += len(data)
        return True


def _top_with_evidence(counter: Counter, min_evidence: int) -> Optional[str]:
    """Most frequent entry when it clears the evidence floor; ties break
    lexicographically so cycles are deterministic."""
    best = None
    for name, count in counter.items():
        if count < min_evidence:
            continue
        if best is None or count > best[1] or (count == best[1] and name < best[0]):
            best = (name, count)
    return best[0] if best is not None else None


def _meta_range_fraction(meta: Optional[dict], cnf: ConjunctiveForm, sort_column: str) -> float:
    """Estimated candidate-row fraction a sorted replica's binary search
    leaves for ``cnf``, from the variant's published order-column range.
    1.0 when nothing prunable; the executor computes the exact fraction."""
    if not meta:
        return 1.0
    rng = meta.get("order_range")
    if not rng:
        return 1.0
    lo, hi = rng
    if not isinstance(lo, (int, float)) or not isinstance(hi, (int, float)):
        return 1.0
    width = float(hi) - float(lo)  # 0.0 for distinct int64 ends that round alike
    if width <= 0:
        return 1.0
    fraction = 1.0
    for clause in cnf.clauses:
        if clause.residuals or len(clause.atoms) != 1:
            continue
        atom = clause.atoms[0]
        if atom.column != sort_column or atom.negated:
            continue
        if not isinstance(atom.value, (int, float)) or isinstance(atom.value, bool):
            continue
        v = float(atom.value)
        if atom.op in (BinaryOperator.LT, BinaryOperator.LE):
            f = (v - lo) / width
        elif atom.op in (BinaryOperator.GT, BinaryOperator.GE):
            f = (hi - v) / width
        elif atom.op is BinaryOperator.EQ:
            f = 1.0 / max(1.0, width)
        else:
            continue
        fraction = min(fraction, max(0.0, min(1.0, f)))
    return fraction


def _json_scalar(value):
    """Chunk stats hold numpy scalars; variant meta must stay JSON-able."""
    if isinstance(value, (bool, np.bool_)):
        return None  # bool ranges prune nothing worth modeling
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if v == v else None  # NaN min/max: unusable for pruning
    return None


def sorted_candidate_rows(
    block: Block, sort_column: str, clauses: Sequence[Clause]
) -> Optional[int]:
    """Exact candidate-row count a binary search over ``sort_column``
    leaves on a sorted block, or None when no clause prunes.

    Prices a sorted variant's fractional read (:meth:`LayoutSpec.probe`);
    evaluation itself stays exact on every row, so answers are identical
    to the base replica's.  The analyzer puts every literal in its
    column's domain, so each usable atom's bounds compare with the
    column's values.
    """
    if sort_column not in block.chunks:
        return None
    usable: List[AtomicPredicate] = []
    for clause in clauses:
        if clause.residuals or len(clause.atoms) != 1:
            continue
        atom = clause.atoms[0]
        if atom.column == sort_column and atom.bounds is not None:
            usable.append(atom)
    if not usable:
        return None
    values = block.column(sort_column)
    start, stop = 0, len(values)
    for atom in usable:
        lo, hi = sorted_span(values, atom.bounds)
        start, stop = max(start, lo), min(stop, hi)
    return max(0, stop - start)
