"""Sub-plan execution (leaf side) and result finalization (master side).

Leaf path, per block (§IV-C-3 / Fig 7):

1. fold the scan CNF through the access paths the leaf hands over (the
   SmartIndex, the B+ tree baseline) — a fully
   answered filter skips both the block scan and predicate evaluation;
2. otherwise evaluate what is left on the encoded column chunks, feed
   every evaluated atom to the SmartIndex, and materialize the payload
   columns at the matching rows only;
3. join against broadcast dimension tables, apply the post-join residual
   filter;
4. produce either per-group partial aggregates or a projected row frame.

An aggregate whose plan carries ``eager_join`` swaps steps 3 and 4 when
the dimensions' key tuples are distinct and free of NaN: the fact rows
are aggregated per join key, and only those partial rows are joined,
filtered and merged into the query's groups (S67).  It charges what the
row-by-row join would have charged.

Master path: merge partials bottom-up, materialize aggregate columns,
apply HAVING / ORDER BY / LIMIT, and project the output schema.

Every task returns a :class:`TaskExecutionReport` with the I/O bytes and
CPU ops it *would have* cost on the paper's hardware — the simulated
cluster charges these against its device models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.block import Block
from repro.columnar.encoding import ChunkReader
from repro.columnar.schema import DataType, coerce_array
from repro.engine.aggregates import (
    GroupedPartial,
    _to_python,
    partial_aggregate,
)
from repro.engine.operators import (
    apply_filter,
    directly_comparable,
    join,
    limit_frame,
    prefix_columns,
    sort_frame,
)
from repro.errors import ExecutionError
from repro.planner.cnf import Clause
from repro.planner.cost import (
    OPS_PER_COMPARISON,
    OPS_PER_CONTAINS,
    OPS_PER_DECODE,
)
from repro.planner.expressions import Frame, evaluate, make_qualified_resolver
from repro.planner.physical import EagerJoin, PhysicalPlan, ScanTask
from repro.sql.analyzer import AnalyzedQuery
from repro.sql.ast import (
    AggregateCall,
    BinaryOp,
    BinaryOperator,
    Column,
    Expr,
    FunctionCall,
    Negate,
    NotOp,
    OrderItem,
    Star,
    walk,
)

#: CPU ops a broadcast join charges per probe row and per build row.
JOIN_OPS_PER_ROW = 3.0


@dataclass
class TaskExecutionReport:
    """Cost accounting for one executed scan task."""

    task_id: str
    rows_in_block: int = 0
    rows_matched: int = 0
    io_bytes: int = 0
    io_seeks: int = 0
    cpu_ops: float = 0.0
    index_full_cover: bool = False
    index_clause_hits: int = 0
    index_clause_misses: int = 0
    btree_clauses: int = 0
    scale_factor: float = 1.0
    #: ``io_bytes`` and ``cpu_ops`` at production scale, set by :meth:`finish`.
    modeled_io_bytes: float = field(default=0.0, init=False)
    modeled_cpu_ops: float = field(default=0.0, init=False)

    def finish(self) -> "TaskExecutionReport":
        """Close the books of a task that has run: nothing adds to
        ``io_bytes`` or ``cpu_ops`` after this."""
        self.modeled_io_bytes = self.io_bytes * self.scale_factor
        self.modeled_cpu_ops = self.cpu_ops * self.scale_factor
        return self


@dataclass
class TaskResult:
    """What a leaf returns upstream for one task."""

    task_id: str
    partial: Optional[GroupedPartial] = None
    frame: Optional[Frame] = None
    report: TaskExecutionReport = None  # type: ignore[assignment]

    def payload_bytes(self) -> int:
        """Wire-size estimate of this result for the network model."""
        if self.partial is not None:
            return self.partial.estimated_bytes()
        total = 64
        if self.frame is not None:
            # ``len(str(x)) + 8`` per string; ``map`` keeps the per-row
            # work out of Python frames.
            for v in self.frame.columns.values():
                total += v.nbytes if v.dtype != object else sum(map(len, map(str, v))) + 8 * v.size
        return total


def _resolver_for(analyzed: AnalyzedQuery, frame: Frame, qualified: bool):
    """Resolve AST columns against a task frame.

    Leaves produce bare column names for single-table plans and
    ``binding.column`` names once joins are involved.
    """

    def resolve(col: Column) -> str:
        res = analyzed.resolutions.get((col.table, col.name))
        if res is not None:
            key = f"{res.binding}.{res.field.name}" if qualified else res.field.name
            if key in frame.columns:
                return key
        return make_qualified_resolver(frame)(col)

    return resolve


def execute_scan_task(
    task: ScanTask,
    plan: PhysicalPlan,
    block: Block,
    broadcast_frames: Optional[Dict[str, Frame]] = None,
    paths: Sequence = (),
    now: float = 0.0,
    index_key: Optional[Hashable] = None,
) -> TaskResult:
    """Run one scan task against its (already fetched) block.

    Filter, then gather: predicates are answered on the encoded chunks
    (:func:`_scan_block`), and only ``plan.payload_columns`` are
    materialized, only at the matching rows.

    ``paths`` are the access paths the leaf offers, folded in order
    (:func:`_scan_block`).  ``index_key`` (default: the block id) is the
    one key every path sees; a leaf passes ``(block id, incarnation)``.
    """
    if index_key is None:
        index_key = block.block_id
    report, frame = _scan_block(task, plan, block, index_key, paths, now)
    result = _finish_task(frame, task, plan, broadcast_frames, report)
    # ``report.finish()``, spelled out: nothing adds to the books after this.
    report.modeled_io_bytes = report.io_bytes * report.scale_factor
    report.modeled_cpu_ops = report.cpu_ops * report.scale_factor
    return result


def _scan_block(
    task: ScanTask,
    plan: PhysicalPlan,
    block: Block,
    index_key: Hashable,
    paths: Sequence,
    now: float,
) -> Tuple[TaskExecutionReport, Frame]:
    """Fold the access paths, price the scan, evaluate what is left and
    gather the payload columns at the matching rows.

    Each path's ``probe(key, clauses, block, now)`` sees the clauses the
    paths before it left, and returns ``(mask, missing, charge)``: the
    boolean mask of the clauses it answered (or None), the clauses still
    missing, and ``charge(report, read)``, which books its costs once
    the read set is known and says whether it priced the read.  A path's
    ``learn``, if not None, is fed every atom evaluated here.

    Returns ``(report, frame)``: ``plan.payload_columns`` at the matching
    rows, in ascending row order (nothing is read at all when a fully
    answered filter matches nothing), with ``report.rows_matched`` set.
    Every charge is a formula over whole-block row counts, never over the
    work done here, so the simulated clock cannot see how a column was
    read.
    """
    report = TaskExecutionReport(
        task_id=task.task_id, rows_in_block=block.num_rows, scale_factor=block.scale_factor
    )
    mask = None
    left = plan.scan_cnf.clauses
    charges: list = []
    learn = None
    for path in paths:
        if not left:
            break
        answered, left, charge = path.probe(index_key, left, block, now)
        if answered is not None:
            mask = answered if mask is None else (mask & answered)
        charges += [charge]
        learn = learn or path.learn
    full = mask is not None and not left
    report.index_full_cover = full
    payload_columns = plan.payload_columns
    # ``mask.any()`` without numpy's Python-level ``_any``.
    empty = full and not np.logical_or.reduce(mask)
    read_columns = () if empty else payload_columns if full else task.columns
    priced = False
    for charge in charges:
        priced = charge(report, read_columns) or priced
    if empty:
        return report, Frame(
            {c: np.empty(0, dtype=_np_dtype(plan.analyzed, task, c)) for c in payload_columns}, 0
        )
    num_rows = block.num_rows
    if read_columns and not priced:
        report.io_bytes += block.column_bytes(read_columns)
        report.cpu_ops += OPS_PER_DECODE * num_rows * len(read_columns)
    if read_columns:
        report.io_seeks += 1
    chunks = block.chunks
    readers: Dict[str, ChunkReader] = {}
    for c in read_columns:
        readers[c] = chunks[c].reader()
    if left:
        mask = _evaluate(left, readers, num_rows, mask, learn, index_key, task, now, report)
    columns: Dict[str, np.ndarray] = {}
    if mask is None:
        for c in payload_columns:
            columns[c] = readers[c].values()
    else:
        rows = mask.nonzero()[0]
        num_rows = rows.size
        for c in payload_columns:
            columns[c] = readers[c].take(rows)
    report.rows_matched = num_rows
    return report, Frame(columns, num_rows)


def _finish_task(
    frame: Frame,
    task: ScanTask,
    plan: PhysicalPlan,
    broadcast_frames: Optional[Dict[str, Frame]],
    report: TaskExecutionReport,
) -> TaskResult:
    """Joins, post-join filter, then partial aggregate or projection —
    or, where :func:`_aggregate_then_join` can, the aggregate first."""
    analyzed = plan.analyzed
    qualified = plan.has_joins
    if qualified:
        eager = plan.shape.eager_join
        if eager is not None:
            partial = _aggregate_then_join(frame, plan, eager, broadcast_frames or {}, report)
            if partial is not None:
                return TaskResult(task.task_id, partial=partial, report=report)
        frame = prefix_columns(frame, task.binding)
        frame = _apply_broadcast_joins(frame, plan, broadcast_frames or {}, report)
    if plan.post_filter is not None and frame.num_rows > 0:
        resolve = _resolver_for(analyzed, frame, qualified)
        post_mask = evaluate(plan.post_filter, frame, resolve).astype(np.bool_)
        report.cpu_ops += 2.0 * frame.num_rows
        frame = apply_filter(frame, post_mask)

    if plan.is_aggregate:
        report.cpu_ops += 2.0 * frame.num_rows * max(1, len(analyzed.aggregates))
        partial = _partial_aggregate(frame, plan, qualified)
        return TaskResult(task.task_id, partial=partial, report=report)

    output_frame = _project_task_frame(frame, plan, qualified)
    if analyzed.query.limit is not None:
        output_frame = _push_down_limit(output_frame, plan, qualified)
    return TaskResult(task.task_id, frame=output_frame, report=report)


def _np_dtype(analyzed: AnalyzedQuery, task: ScanTask, column: str):
    table = analyzed.tables[task.binding]
    return table.schema.field(column).dtype.numpy_dtype


def _evaluate(
    missing: Sequence[Clause],
    readers: Dict[str, ChunkReader],
    num_rows: int,
    mask: Optional[np.ndarray],
    learn,
    index_key: Hashable,
    task: ScanTask,
    now: float,
    report: TaskExecutionReport,
) -> np.ndarray:
    """Evaluate the clauses the access paths left, AND-ed into ``mask``,
    on the block's ``num_rows`` rows; every evaluated atom is fed to
    ``learn``."""
    for clause in missing:
        clause_mask: Optional[np.ndarray] = None
        for atom in clause.atoms:
            atom_mask = readers[atom.column].map_bool(atom.evaluate)
            report.cpu_ops += (
                OPS_PER_CONTAINS if atom.op is BinaryOperator.CONTAINS else OPS_PER_COMPARISON
            ) * num_rows
            if learn is not None:
                learn(index_key, atom, atom_mask, now, task.block)
            clause_mask = atom_mask if clause_mask is None else (clause_mask | atom_mask)
        for residual in clause.residuals:
            # Opaque expression: needs real values of the columns it touches.
            frame = Frame(
                {
                    c: readers[c].values()
                    for c in {n.name for n in walk(residual) if isinstance(n, Column)}
                },
                num_rows,
            )
            res_mask = evaluate(residual, frame).astype(np.bool_)
            report.cpu_ops += 2.0 * num_rows
            clause_mask = res_mask if clause_mask is None else (clause_mask | res_mask)
        if clause_mask is None:
            raise ExecutionError("clause with neither atoms nor residuals")
        mask = clause_mask if mask is None else (mask & clause_mask)
    assert mask is not None
    return mask


def _apply_broadcast_joins(
    frame: Frame,
    plan: PhysicalPlan,
    broadcast_frames: Dict[str, Frame],
    report: TaskExecutionReport,
) -> Frame:
    for bc in plan.broadcasts:
        try:
            dim = broadcast_frames[bc.binding]
        except KeyError:
            raise ExecutionError(f"missing broadcast table {bc.binding!r}") from None
        dim_q = prefix_columns(dim, bc.binding)
        resolve = None
        if bc.keys is None:
            resolve = make_qualified_resolver(Frame({**frame.columns, **dim_q.columns}, 0))
        before = frame.num_rows
        frame = join(frame, dim_q, bc.kind, bc.keys, bc.condition, resolve)
        report.cpu_ops += JOIN_OPS_PER_ROW * (before + dim.num_rows)
    return frame


def _aggregate_then_join(
    frame: Frame,
    plan: PhysicalPlan,
    eager: EagerJoin,
    broadcast_frames: Dict[str, Frame],
    report: TaskExecutionReport,
) -> Optional[GroupedPartial]:
    """Eager aggregation across the broadcast joins (S67).

    The fact rows are aggregated per tuple of join keys; each tuple is
    looked up in every dimension's key dict (one row or none, INNER),
    the residual filter runs on those partial rows, and their states are
    regrouped by the query's keys with ``GroupedPartial.merge``, the
    master's rule.  Float SUM/AVG therefore add per key, then across keys.

    Returns None, having charged nothing, when a dimension's key tuples
    repeat or hold NaN, or a key pair is not ``directly_comparable``
    (decided once per broadcast frame, :func:`_dimension_index`): the
    caller then joins row by row.  Otherwise every charge is the
    row-by-row path's formula over the row counts it would have seen.
    """
    analyzed = plan.analyzed
    fact_keys = [frame.columns[name] for name in eager.fact_keys]
    fact_dtypes = tuple(map(_DTYPE, fact_keys))
    lookups = []
    for bc, (positions, dim_keys) in zip(plan.broadcasts, eager.joins):
        dim = broadcast_frames.get(bc.binding)
        if dim is None:
            return None
        index = _dimension_index(dim, positions, dim_keys, fact_keys, fact_dtypes)
        if index is None:
            return None
        lookups.append((bc, dim, itemgetter(*positions), index))

    resolve = _resolver_for(analyzed, frame, False)
    funcs = [agg.func for agg in analyzed.aggregates]
    args = [
        None if isinstance(agg.argument, Star) else evaluate(agg.argument, frame, resolve)
        for agg in analyzed.aggregates
    ]
    per_key = partial_aggregate(fact_keys, funcs, args, frame.num_rows)
    keys = list(zip(*map(np.ndarray.tolist, per_key.keys)))
    counts = per_key.counts.tolist()

    # ``alive``: the keys still joined; ``rows``: the row-by-row path's rows.
    alive = range(len(keys))
    rows = frame.num_rows
    found = []
    for bc, dim, key_of, index in lookups:
        report.cpu_ops += JOIN_OPS_PER_ROW * (rows + dim.num_rows)
        dim_rows = list(map(index.get, map(key_of, keys)))
        alive = [i for i in alive if dim_rows[i] is not None]
        rows = sum(map(counts.__getitem__, alive))
        found.append(dim_rows)
    joined: Dict[str, np.ndarray] = {}
    for (bc, dim, _, _), dim_rows in zip(lookups, found):
        at = [dim_rows[i] for i in alive]
        joined.update({f"{bc.binding}.{name}": col[at] for name, col in dim.columns.items()})
    partial_rows = Frame(joined, len(alive))

    if plan.post_filter is not None and rows > 0:
        resolve = _resolver_for(analyzed, partial_rows, True)
        mask = evaluate(plan.post_filter, partial_rows, resolve).astype(np.bool_)
        report.cpu_ops += 2.0 * rows
        partial_rows = partial_rows.take(mask)
        alive = list(compress(alive, mask))
        rows = sum(map(counts.__getitem__, alive))
    report.cpu_ops += 2.0 * rows * max(1, len(funcs))

    # The joined keys' partial rows, regrouped by the query's keys.
    if not alive:
        return GroupedPartial(len(eager.group_keys), funcs, rows_scanned=rows)
    at = np.array(alive, dtype=np.int64)
    joined_keys = GroupedPartial(
        len(eager.group_keys),
        funcs,
        keys=[
            per_key.keys[k][at] if isinstance(k, int) else partial_rows.columns[k]
            for k in eager.group_keys
        ],
        counts=per_key.counts[at],
        states=[col[at] for col in per_key.states],
        rows_scanned=rows,
    )
    return joined_keys.merge()


_DTYPE = attrgetter("dtype")


def _dimension_index(
    dim: Frame,
    positions: Tuple[int, ...],
    dim_keys: Tuple[str, ...],
    fact_keys: List[np.ndarray],
    fact_dtypes: Tuple,
) -> Optional[Dict]:
    """``dim``'s row per key tuple of its ``dim_keys`` columns, keyed the
    way ``itemgetter(*positions)`` reads a fact key tuple (by the value for
    one column, by a tuple for several); None when the tuples repeat or
    hold NaN, or a key pair is not ``directly_comparable``.

    A broadcast frame is the same for every task of a job, so the answer
    is derived once per frame and kept on it (``Frame.derived``), under
    the key columns and the fact keys' dtypes it was checked against.
    """
    derived = dim.derived
    if derived is None:
        derived = dim.derived = {}
    memo_key = ("eager_join", positions, dim_keys, fact_dtypes)
    if memo_key in derived:
        return derived[memo_key]
    index: Optional[Dict] = None
    columns = [dim.columns[name] for name in dim_keys]
    if all(
        directly_comparable(fact_keys[pos], col)
        and not (col.dtype.kind == "f" and np.isnan(col).any())
        for pos, col in zip(positions, columns)
    ):
        values = [col.tolist() for col in columns]
        index = dict(zip(values[0] if len(values) == 1 else zip(*values), range(dim.num_rows)))
        if len(index) != dim.num_rows:
            index = None
    derived[memo_key] = index
    return index


def _rewrite(expr: Expr, mapping: Dict[Expr, Column]) -> Expr:
    """Replace aggregate calls / group keys with materialized columns."""
    if expr in mapping:
        return mapping[expr]
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, _rewrite(expr.left, mapping), _rewrite(expr.right, mapping))
    if isinstance(expr, NotOp):
        return NotOp(_rewrite(expr.operand, mapping))
    if isinstance(expr, Negate):
        return Negate(_rewrite(expr.operand, mapping))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(_rewrite(a, mapping) for a in expr.args))
    if isinstance(expr, AggregateCall):
        raise ExecutionError(f"aggregate {expr} was not materialized")
    return expr


def _partial_aggregate(frame: Frame, plan: PhysicalPlan, qualified: bool) -> GroupedPartial:
    analyzed = plan.analyzed
    resolve = _resolver_for(analyzed, frame, qualified)
    key_arrays = [evaluate(k, frame, resolve) for k in analyzed.group_keys]
    agg_arrays: List[Optional[np.ndarray]] = []
    for agg in analyzed.aggregates:
        if isinstance(agg.argument, Star):
            agg_arrays.append(None)
        else:
            agg_arrays.append(evaluate(agg.argument, frame, resolve))
    return partial_aggregate(
        key_arrays, [a.func for a in analyzed.aggregates], agg_arrays, frame.num_rows
    )


def _push_down_limit(frame: Frame, plan: PhysicalPlan, qualified: bool) -> Frame:
    """Top-k pushdown: a leaf never ships more rows than the query's
    LIMIT can use.

    Without ORDER BY, any ``limit`` rows do.  With ORDER BY, the leaf
    pre-sorts *when every sort key is a plain column it holds* — the
    master's final sort then re-establishes the global order over at most
    ``tasks x limit`` rows instead of every matching row.  This is the
    kind of interactive-response measure §III-C calls for.
    """
    analyzed = plan.analyzed
    limit = analyzed.query.limit
    assert limit is not None
    if frame.num_rows <= limit:
        return frame
    if not analyzed.query.order_by:
        return limit_frame(frame, limit)
    resolve = _resolver_for(analyzed, frame, qualified)
    keys = []
    for item in analyzed.query.order_by:
        expr = item.expr
        if not isinstance(expr, Column):
            return frame  # expression / alias keys: leave global handling
        try:
            keys.append((frame.column(resolve(expr)), item.ascending))
        except ExecutionError:
            return frame
    return limit_frame(sort_frame(frame, keys), limit)


def _project_task_frame(frame: Frame, plan: PhysicalPlan, qualified: bool) -> Frame:
    """Keep only the columns later stages reference, in canonical names."""
    analyzed = plan.analyzed
    needed: Dict[str, np.ndarray] = {}
    for binding in analyzed.tables:
        for col in analyzed.columns_of(binding):
            key = f"{binding}.{col}" if qualified else col
            if key in frame.columns:
                needed[key] = frame.columns[key]
    return Frame(needed, frame.num_rows)


# -- master-side finalization ---------------------------------------------


@dataclass
class QueryResult:
    """The final answer handed back to the client."""

    columns: List[str]
    frame: Frame
    #: Fraction of planned tasks whose results arrived (1.0 normally;
    #: lower when a time-limited query returned early, §III-C).
    processed_ratio: float = 1.0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return self.frame.num_rows

    def rows(self) -> List[Tuple]:
        cols = [self.frame.columns[c] for c in self.columns]
        return [tuple(_to_python(c[i]) for c in cols) for i in range(self.frame.num_rows)]

    def column(self, name: str) -> np.ndarray:
        return self.frame.column(name)


def finalize(
    plan: PhysicalPlan,
    results: Sequence[TaskResult],
    processed_ratio: float = 1.0,
) -> QueryResult:
    """Combine task results into the client-visible answer."""
    analyzed = plan.analyzed
    if plan.is_aggregate:
        frame = _materialize_aggregates(plan, results)
        mapping = _aggregate_mapping(analyzed)
        qualified = False
        resolve = make_qualified_resolver(frame)
    else:
        frames = [r.frame for r in results if r.frame is not None]
        frame = Frame.concat(frames) if frames else _empty_output(plan)
        mapping = {}
        qualified = plan.has_joins
        resolve = _resolver_for(analyzed, frame, qualified)

    if plan.is_aggregate and analyzed.query.having is not None:
        having = _rewrite(analyzed.query.having, mapping)
        mask = evaluate(having, frame, resolve).astype(np.bool_)
        frame = apply_filter(frame, mask)

    if analyzed.query.order_by:
        keys = []
        for item in analyzed.query.order_by:
            expr = _order_target(item, analyzed, mapping)
            keys.append((evaluate(expr, frame, resolve), item.ascending))
        frame = sort_frame(frame, keys)

    frame = limit_frame(frame, analyzed.query.limit)

    out_columns: Dict[str, np.ndarray] = {}
    for name, expr in zip(analyzed.output_names, analyzed.output_exprs):
        rewritten = _rewrite(expr, mapping) if mapping else expr
        out_columns[name] = evaluate(rewritten, frame, resolve)
    output = Frame(out_columns, frame.num_rows)
    return QueryResult(
        columns=list(analyzed.output_names),
        frame=output,
        processed_ratio=processed_ratio,
    )


def _order_target(item: OrderItem, analyzed: AnalyzedQuery, mapping: Dict[Expr, Column]) -> Expr:
    expr = item.expr
    if isinstance(expr, Column) and expr.table is None:
        if (None, expr.name) not in analyzed.resolutions:
            for name, out in zip(analyzed.output_names, analyzed.output_exprs):
                if name == expr.name:
                    expr = out
                    break
    return _rewrite(expr, mapping) if mapping else expr


def _aggregate_mapping(analyzed: AnalyzedQuery) -> Dict[Expr, Column]:
    mapping: Dict[Expr, Column] = {}
    for i, key in enumerate(analyzed.group_keys):
        mapping[key] = Column(f"__key{i}")
    for i, agg in enumerate(analyzed.aggregates):
        mapping[agg] = Column(f"__agg{i}")
    return mapping


def _materialize_aggregates(plan: PhysicalPlan, results: Sequence[TaskResult]) -> Frame:
    """Merge every arrived partial in one call and read the groups out as
    columns, ordered by their keys' ``str`` tuples."""
    analyzed = plan.analyzed
    merged = GroupedPartial(
        len(analyzed.group_keys), [a.func for a in analyzed.aggregates]
    ).merge(*[r.partial for r in results if r.partial is not None])
    num_rows = merged.num_groups
    if num_rows:
        strs = list(zip(*(map(str, col.tolist()) for col in merged.keys)))
        order = sorted(range(len(strs)), key=strs.__getitem__) if strs else [0]
        keys = [col[order] for col in merged.keys]
        finals = [col[order] for col in merged.final_columns()]
    else:
        # No group: no row, or a global aggregate's one row over no rows,
        # where COUNT's 0 is INT64's NULL default.
        keys = [[] for _ in analyzed.group_keys]
        num_rows = 0 if keys else 1
        finals = [[_null_default(analyzed.type_of(a))] * num_rows for a in analyzed.aggregates]
    columns: Dict[str, np.ndarray] = {}
    for i, (key_expr, col) in enumerate(zip(analyzed.group_keys, keys)):
        columns[f"__key{i}"] = coerce_array(col, analyzed.type_of(key_expr))
    for j, (agg, col) in enumerate(zip(analyzed.aggregates, finals)):
        columns[f"__agg{j}"] = coerce_array(col, analyzed.type_of(agg))
    return Frame(columns, num_rows)


def _null_default(dtype: DataType):
    """What a NULL aggregate reads as in a dense column."""
    if dtype is DataType.STRING:
        return ""
    if dtype is DataType.FLOAT64:
        return float("nan")
    return 0


def _empty_output(plan: PhysicalPlan) -> Frame:
    analyzed = plan.analyzed
    qualified = plan.has_joins
    columns: Dict[str, np.ndarray] = {}
    for binding, table in analyzed.tables.items():
        for col in analyzed.columns_of(binding):
            key = f"{binding}.{col}" if qualified else col
            columns[key] = np.empty(0, dtype=table.schema.field(col).dtype.numpy_dtype)
    return Frame(columns, 0)
