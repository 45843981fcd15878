"""Bloomier filter: collision-free hashing with incremental updates."""

from .peeling import PeelResult, PeelStallError, peel
from .backend import (
    BACKENDS,
    BloomierSetupError,
    IndexBackend,
    SetupReport,
    XorIndexTable,
    backend_names,
    make_backend,
    register_backend,
)
from .filter import BloomierFilter
from .fuse import FuseIndexBackend, fuse_geometry
from .partitioned import Inserted, InsertOutcome, PartitionedBloomierFilter
from .spillover import SpilloverCapacityError, SpilloverTCAM

__all__ = [
    "PeelResult",
    "PeelStallError",
    "peel",
    "BACKENDS",
    "IndexBackend",
    "XorIndexTable",
    "backend_names",
    "make_backend",
    "register_backend",
    "BloomierFilter",
    "BloomierSetupError",
    "SetupReport",
    "FuseIndexBackend",
    "fuse_geometry",
    "Inserted",
    "InsertOutcome",
    "PartitionedBloomierFilter",
    "SpilloverCapacityError",
    "SpilloverTCAM",
]
