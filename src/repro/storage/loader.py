"""Loading tables into storage and reading blocks back.

The light-weight per-node process of §III converts newly arrived data
into Feisu's columnar format; :func:`store_table` is its bulk analogue —
it splits columns into blocks, serializes each through the common storage
layer, and registers the resulting :class:`~repro.columnar.table.Table`
descriptor with catalog-grade statistics (per-column ranges for pruning).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.columnar.block import DEFAULT_BLOCK_ROWS, Block, split_into_blocks
from repro.columnar.schema import Schema
from repro.columnar.stats import ColumnHistogram
from repro.columnar.table import BlockRef, Catalog, Table
from repro.errors import StorageError
from repro.sim.netmodel import NodeAddress
from repro.storage.base import StorageSystem
from repro.storage.router import StorageRouter


def store_table(
    name: str,
    schema: Schema,
    columns: Mapping[str, np.ndarray],
    router: StorageRouter,
    system: StorageSystem,
    base_path: str = "",
    block_rows: int = DEFAULT_BLOCK_ROWS,
    scale_factor: float = 1.0,
    node: Optional[NodeAddress] = None,
    catalog: Optional[Catalog] = None,
    description: str = "",
) -> Table:
    """Split, serialize and place a table on one system; return its
    descriptor (the one-system case of :func:`store_table_striped`)."""
    return store_table_striped(
        name,
        schema,
        columns,
        router,
        [system],
        base_path,
        block_rows,
        scale_factor,
        catalog,
        description,
        node=node,
    )


def store_table_striped(
    name: str,
    schema: Schema,
    columns: Mapping[str, np.ndarray],
    router: StorageRouter,
    systems: Sequence[StorageSystem],
    base_path: str = "",
    block_rows: int = DEFAULT_BLOCK_ROWS,
    scale_factor: float = 1.0,
    catalog: Optional[Catalog] = None,
    description: str = "",
    node: Optional[NodeAddress] = None,
) -> Table:
    """Split, serialize and place a table, striping its blocks
    round-robin across ``systems``; return its descriptor.

    This is the paper's data-integration scenario in its purest form:
    *one* logical table whose data lives on heterogeneous systems (hot
    HDFS + cold Fatman, say), queried through one SQL statement — each
    scan task resolves its own block's system through the common storage
    layer, honouring that system's service profile.  ``scale_factor``
    records how many production rows each materialized row stands for
    (DESIGN.md §1) — it flows into every block reference so the cost
    model charges production-proportional I/O.  ``node`` is a placement
    hint passed to every write.
    """
    if not systems:
        raise StorageError("store_table_striped needs at least one system")
    base_path = base_path or f"/tables/{name}"
    blocks = split_into_blocks(name, schema, dict(columns), block_rows, scale_factor)
    table = Table(name=name, schema=schema, description=description)
    for f in schema:
        if f.dtype.is_numeric:
            table.column_stats[f.name] = ColumnHistogram.build(
                np.asarray(columns[f.name])
            )
    for i, block in enumerate(blocks):
        table.add_block(
            write_block(
                router, systems[i % len(systems)], f"{base_path}/{block.block_id}", block, node
            )
        )
    if catalog is not None:
        catalog.register(table)
    return table


def write_block(
    router: StorageRouter,
    system: StorageSystem,
    inner: str,
    block: Block,
    node: Optional[NodeAddress] = None,
) -> BlockRef:
    """Serialize ``block``, write it at ``inner`` on ``system`` and return
    its reference, stamped with the write's incarnation.

    The only way a base block enters storage: bulk loads and the log
    ingestor both come through here.
    """
    payload = block.to_bytes()
    incarnation = system.write(inner, payload, node=node)
    column_bytes = tuple((n, c.encoded_bytes) for n, c in block.chunks.items())
    ranges = tuple(
        (n, c.stats.min_value, c.stats.max_value)
        for n, c in block.chunks.items()
        if c.stats.min_value is not None
    )
    return BlockRef(
        block_id=block.block_id,
        path=router.full_path(system, inner),
        num_rows=block.num_rows,
        encoded_bytes=len(payload),
        column_bytes=column_bytes,
        scale_factor=block.scale_factor,
        column_ranges=ranges,
        incarnation=incarnation,
    )


def load_block(router: StorageRouter, ref: BlockRef, cred=None, now: float = 0.0) -> Block:
    """Fetch and decode one block through the common storage layer."""
    payload = router.read(ref.path, cred=cred, now=now)
    block = Block.from_bytes(payload)
    if block.block_id != ref.block_id:
        raise StorageError(
            f"block identity mismatch: ref {ref.block_id!r} vs stored {block.block_id!r}"
        )
    return block


def read_table_frame(
    router: StorageRouter,
    table: Table,
    columns: Sequence[str],
    cred=None,
    now: float = 0.0,
) -> Dict[str, np.ndarray]:
    """Materialize selected columns of a whole table (broadcast tables)."""
    parts: Dict[str, list] = {c: [] for c in columns}
    for ref in table.blocks:
        block = load_block(router, ref, cred=cred, now=now)
        for c in columns:
            parts[c].append(block.column(c))
    return {
        c: (np.concatenate(v) if v else np.empty(0, dtype=table.schema.field(c).dtype.numpy_dtype))
        for c, v in parts.items()
    }
