"""Heterogeneous storage substrates and the common storage layer."""

from repro.storage.base import ServiceProfile, StorageSystem
from repro.storage.loader import load_block, read_table_frame, store_table, store_table_striped, write_block
from repro.storage.maintenance import RepairReport, ReplicaRepairer
from repro.storage.router import StorageRouter
from repro.storage.ssd_cache import SsdCache
from repro.storage.systems import (
    DistributedFS,
    FatmanFS,
    KeyValueStore,
    LocalFS,
)

__all__ = [
    "DistributedFS",
    "FatmanFS",
    "KeyValueStore",
    "LocalFS",
    "RepairReport",
    "ReplicaRepairer",
    "ServiceProfile",
    "SsdCache",
    "StorageRouter",
    "StorageSystem",
    "load_block",
    "read_table_frame",
    "store_table",
    "store_table_striped",
    "write_block",
]
