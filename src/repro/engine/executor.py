"""Sub-plan execution (leaf side) and result finalization (master side).

Leaf path, per block (§IV-C-3 / Fig 7):

1. fold the scan CNF through the access paths the leaf hands over (the
   SmartIndex, the B+ tree baseline, a sorted variant) — a fully
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
from itertools import compress, repeat
from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.block import Block
from repro.columnar.encoding import ChunkReader
from repro.columnar.schema import DataType, coerce_array
from repro.engine.aggregates import (
    GroupedPartial,
    _canonical_key_values,
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
from repro.planner.physical import BroadcastTable, EagerJoin, PhysicalPlan, ScanTask
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
        if self.frame is not None:
            # ``len(str(x)) + 8`` per string; ``map`` keeps the per-row
            # work out of Python frames.
            return 64 + sum(
                v.nbytes if v.dtype != object else sum(map(len, map(str, v))) + 8 * len(v)
                for v in self.frame.columns.values()
            )
        return 64

    def modeled_payload_bytes(self, payload_bytes: int) -> float:
        """Production-scale wire size, given :meth:`payload_bytes` (which
        the caller needs too, so it is computed once).

        Row frames scale with the data (each materialized row models
        ``scale_factor`` production rows); aggregate partials don't —
        their size tracks group cardinality, which is scale-invariant.
        """
        if self.frame is not None and self.report is not None:
            return payload_bytes * self.report.scale_factor
        return float(payload_bytes)


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
    layout=None,
    index_key: Optional[Hashable] = None,
) -> TaskResult:
    """Run one scan task against its (already fetched) block.

    Filter, then gather: predicates are answered on the encoded chunks
    (:func:`_select_rows`), and only ``plan.payload_columns`` are
    materialized, only at the matching rows.

    ``paths`` are the access paths the served bytes offer, folded in
    order (:func:`_select_rows`).  ``layout`` is the
    :class:`~repro.storage.layouts.LayoutSpec` the served block carries
    (None for the base layout); here it only sets a co-partitioned
    variant's join rate.  ``index_key`` (default: the block id) is the
    one key every path sees; a leaf passes ``(block id, incarnation)``.
    """
    if index_key is None:
        index_key = block.block_id
    report, readers, rows = _select_rows(task, plan, block, index_key, paths, now)
    frame = _gather(task, plan, readers, rows, report.rows_in_block)
    report.rows_matched = frame.num_rows
    result = _finish_task(frame, task, plan, broadcast_frames, report, layout)
    report.finish()
    return result


def _select_rows(
    task: ScanTask,
    plan: PhysicalPlan,
    block: Block,
    index_key: Hashable,
    paths: Sequence,
    now: float,
) -> Tuple[TaskExecutionReport, Optional[Dict[str, ChunkReader]], Optional[np.ndarray]]:
    """Fold the access paths, price the scan and evaluate what is left.

    Each path's ``probe(key, clauses, scope, now)`` sees the clauses the
    paths before it left and the ``(block, rows)`` the task covers, and
    returns ``(mask, missing, charge)``: the boolean mask of the clauses
    it answered (or None), the clauses still missing, and
    ``charge(report, read)``, which books its costs once the read set is
    known and says whether it priced the read (None: the path declined
    the scope).  A path's ``learn``, if not None, is fed every atom
    evaluated here.

    Returns ``(report, readers, rows)``: the readers of the columns the
    scan reads (None when a fully answered filter matches nothing, so
    nothing is read at all) and the ascending ids of the matching rows
    (None for every row of the block).  Every charge is a formula over
    whole-block row counts, never over the work done here, so the
    simulated clock cannot see how a column was read.
    """
    lo, hi = 0, block.num_rows
    rows = None
    if task.row_slice is not None:
        # Adaptive sub-task (S53): cover only rows [lo, hi) of the block.
        lo = max(0, min(int(task.row_slice[0]), block.num_rows))
        hi = max(lo, min(int(task.row_slice[1]), block.num_rows))
        rows = np.arange(lo, hi)
    num_rows = hi - lo
    report = TaskExecutionReport(
        task_id=task.task_id, rows_in_block=num_rows, scale_factor=block.scale_factor
    )
    scope = (block, rows)
    mask = None
    left = plan.scan_cnf.clauses
    charges: list = []
    learn = None
    for path in paths:
        if not left:
            break
        answered, left, charge = path.probe(index_key, left, scope, now)
        if charge is None:
            continue
        if answered is not None:
            mask = answered if mask is None else (mask & answered)
        charges += [charge]
        learn = learn or path.learn
    full = mask is not None and not left
    report.index_full_cover = full
    payload_columns = plan.payload_columns
    empty = full and not mask.any()
    read_columns = () if empty else payload_columns if full else task.columns
    priced = False
    for charge in charges:
        priced = charge(report, read_columns) or priced
    if empty:
        return report, None, None
    if read_columns and not priced:
        if rows is None:
            report.io_bytes += block.column_bytes(read_columns)
            report.cpu_ops += OPS_PER_DECODE * block.num_rows * len(read_columns)
        else:
            # Proportional charge: a slice reads its fraction of every
            # chunk, so summed sub-task costs equal the whole block's.
            fraction = num_rows / max(1, block.num_rows)
            report.io_bytes += int(round(block.column_bytes(read_columns) * fraction))
            report.cpu_ops += OPS_PER_DECODE * num_rows * len(read_columns)
    if read_columns:
        report.io_seeks += 1
    readers = {c: block.chunks[c].reader() for c in read_columns}
    if left:
        mask = _evaluate(left, readers, rows, num_rows, mask, learn, index_key, task, now, report)
    if mask is None:
        return report, readers, rows
    matched = mask.nonzero()[0]
    if lo:
        matched += lo
    return report, readers, matched


def _gather(
    task: ScanTask,
    plan: PhysicalPlan,
    readers: Optional[Dict[str, ChunkReader]],
    rows: Optional[np.ndarray],
    num_rows: int,
) -> Frame:
    """Materialize the payload columns at ``rows`` (see :func:`_select_rows`)."""
    columns = plan.payload_columns
    if readers is None:
        return Frame(
            {c: np.empty(0, dtype=_np_dtype(plan.analyzed, task, c)) for c in columns}, 0
        )
    if rows is None:
        return Frame({c: readers[c].values() for c in columns}, num_rows)
    return Frame({c: readers[c].take(rows) for c in columns}, len(rows))


def _finish_task(
    frame: Frame,
    task: ScanTask,
    plan: PhysicalPlan,
    broadcast_frames: Optional[Dict[str, Frame]],
    report: TaskExecutionReport,
    layout=None,
) -> TaskResult:
    """Joins, post-join filter, then partial aggregate or projection —
    or, where :func:`_aggregate_then_join` can, the aggregate first."""
    analyzed = plan.analyzed
    qualified = plan.has_joins
    if qualified:
        eager = plan.shape.eager_join
        if eager is not None:
            partial = _aggregate_then_join(frame, plan, eager, broadcast_frames or {}, report, layout)
            if partial is not None:
                return TaskResult(task.task_id, partial=partial, report=report)
        frame = prefix_columns(frame, task.binding)
        frame = _apply_broadcast_joins(
            frame, plan, broadcast_frames or {}, report, layout=layout
        )
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
    rows: Optional[np.ndarray],
    num_rows: int,
    mask: Optional[np.ndarray],
    learn,
    index_key: Hashable,
    task: ScanTask,
    now: float,
    report: TaskExecutionReport,
) -> np.ndarray:
    """Evaluate the clauses the access paths left, AND-ed into ``mask``,
    on the ``num_rows`` rows in ``rows`` (None: the whole block); every
    evaluated atom is fed to ``learn``."""
    for clause in missing:
        clause_mask: Optional[np.ndarray] = None
        for atom in clause.atoms:
            atom_mask = readers[atom.column].map_bool(atom.evaluate, rows)
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
                    c: readers[c].values() if rows is None else readers[c].take(rows)
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
    layout=None,
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
        report.cpu_ops += _join_rate(bc, layout) * (before + dim.num_rows)
    return frame


def _join_rate(bc: BroadcastTable, layout) -> float:
    """CPU ops a broadcast join charges per probe and per build row.

    Co-partitioned variant (S54): when the probe side arrives clustered
    by the join key, the hash probe's cache behaviour halves the rate.
    """
    if (
        layout is not None
        and layout.copartition_column is not None
        and bc.condition is not None
        and any(isinstance(n, Column) and n.name == layout.copartition_column
                for n in walk(bc.condition))
    ):
        return 1.5
    return 3.0


def _aggregate_then_join(
    frame: Frame,
    plan: PhysicalPlan,
    eager: EagerJoin,
    broadcast_frames: Dict[str, Frame],
    report: TaskExecutionReport,
    layout=None,
) -> Optional[GroupedPartial]:
    """Eager aggregation across the broadcast joins (S67).

    The fact rows are aggregated per tuple of join keys; each tuple is
    looked up in every dimension's key dict (one row or none, INNER),
    the residual filter runs on those partial rows, and their states are
    merged into the query's groups with ``AggregateState.merge``, the
    stems' rule.  Float SUM/AVG therefore add per key, then across keys.

    Returns None, having charged nothing, when a dimension's key tuples
    repeat or hold NaN, or a key pair is not ``directly_comparable``:
    the caller then joins row by row.  Otherwise every charge is the
    row-by-row path's formula over the row counts it would have seen.
    """
    analyzed = plan.analyzed
    fact_keys = [frame.columns[name] for name in eager.fact_keys]
    lookups = []
    for bc, (positions, dim_keys) in zip(plan.broadcasts, eager.joins):
        dim = broadcast_frames.get(bc.binding)
        if dim is None:
            return None
        columns = [dim.columns[name] for name in dim_keys]
        for pos, col in zip(positions, columns):
            if not directly_comparable(fact_keys[pos], col) or (
                col.dtype.kind == "f" and np.isnan(col).any()
            ):
                return None
        # Keyed the way ``itemgetter(*positions)`` reads a fact key tuple:
        # by the value for one column, by a tuple for several.
        values = [col.tolist() for col in columns]
        index = dict(zip(values[0] if len(values) == 1 else zip(*values), range(dim.num_rows)))
        if len(index) != dim.num_rows:
            return None
        lookups.append((bc, dim, itemgetter(*positions), index))

    resolve = _resolver_for(analyzed, frame, False)
    funcs = [agg.func for agg in analyzed.aggregates]
    args = [
        None if isinstance(agg.argument, Star) else evaluate(agg.argument, frame, resolve)
        for agg in analyzed.aggregates
    ]
    # Each key's row count is the state of a COUNT, from the same grouping
    # (with no NULLs every COUNT counts rows); else of a trailing COUNT(*).
    extra = "COUNT" not in funcs
    per_key = partial_aggregate(
        fact_keys, funcs + ["COUNT"] * extra, args + [None] * extra, frame.num_rows
    )
    keys = list(per_key.groups)
    states = list(per_key.groups.values())
    if extra:
        counts = [s.pop().n for s in states]
    else:
        at = funcs.index("COUNT")
        counts = [s[at].n for s in states]

    # ``alive``: the keys still joined; ``rows``: the row-by-row path's rows.
    alive = range(len(keys))
    rows = frame.num_rows
    found = []
    for bc, dim, key_of, index in lookups:
        report.cpu_ops += _join_rate(bc, layout) * (rows + dim.num_rows)
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

    out = GroupedPartial(len(eager.group_keys), funcs)
    out.rows_scanned = rows
    columns = [
        [keys[i][k] for i in alive]
        if isinstance(k, int)
        else _canonical_key_values(partial_rows.columns[k].tolist())
        for k in eager.group_keys
    ]
    if not columns:
        out.state_for(())  # a global aggregate yields its row even over zero rows
    groups = out.groups
    for group, i in zip(zip(*columns) if columns else repeat(()), alive):
        mine = groups.get(group)
        if mine is None:
            groups[group] = states[i]
        else:
            for state, other in zip(mine, states[i]):
                state.merge(other)
    return out


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
    analyzed = plan.analyzed
    merged: Optional[GroupedPartial] = None
    for r in results:
        if r.partial is None:
            continue
        if merged is None:
            merged = GroupedPartial(r.partial.num_keys, list(r.partial.agg_funcs))
        merged.merge(r.partial)
    if merged is None:
        merged = GroupedPartial(len(analyzed.group_keys), [a.func for a in analyzed.aggregates])
        if not analyzed.group_keys:
            merged.state_for(())
    keys = sorted(merged.groups.keys(), key=lambda k: tuple(str(v) for v in k))
    columns: Dict[str, np.ndarray] = {}
    for i, key_expr in enumerate(analyzed.group_keys):
        dtype = analyzed.type_of(key_expr)
        columns[f"__key{i}"] = coerce_array([k[i] for k in keys], dtype)
    for j, agg in enumerate(analyzed.aggregates):
        dtype = analyzed.type_of(agg)
        values = [_final_or_default(merged.groups[k][j], dtype) for k in keys]
        columns[f"__agg{j}"] = coerce_array(values, dtype)
    return Frame(columns, len(keys))


def _final_or_default(state, dtype: DataType):
    value = state.final()
    if value is not None:
        return value
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
