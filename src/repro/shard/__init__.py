"""Multi-core sharded serving over shared-memory snapshots.

The shard plane scales the snapshot-serving layer (``repro.serve``)
across processes without copying tables per worker:

* ``SharedSnapshot`` (codec) exports a compiled ``BatchLookup``'s numpy
  tables — plus the router's overlay arrays — into one
  ``multiprocessing.shared_memory`` segment; attaching rebuilds the
  batch datapath over zero-copy read-only views, guarded by the same
  block-checksum scheme the fault layer uses for hardware tables.
* ``ControlBlock`` (control) is the generation fence: a seqlock publish
  word naming the current segment, plus per-worker ack slots.
* ``worker_main`` (worker) is the reader loop each ``ShardWorker``
  process runs: re-attach on generation change, serve key slices,
  bounce overlay-covered keys back to the writer.
* ``ShardCoordinator`` (coordinator) is the single writer: it partitions
  batches across workers, patches overlay keys through the live scalar
  path, and publishes new generations through the router's optimistic
  ``words_written`` re-check so a scrub or update mid-export can never
  publish a half-repaired image.

See docs/SHARDING.md for the full protocol and failure-mode table.
"""

from .bench import run_shard_bench, scaling_gate_active
from .codec import SharedSnapshot, SnapshotIntegrityError, table_digest
from .control import ControlBlock, ControlBlockError
from .coordinator import ShardCoordinator, ShardError
from .worker import worker_main

__all__ = [
    "ControlBlock",
    "ControlBlockError",
    "ShardCoordinator",
    "ShardError",
    "SharedSnapshot",
    "SnapshotIntegrityError",
    "run_shard_bench",
    "scaling_gate_active",
    "table_digest",
    "worker_main",
]
