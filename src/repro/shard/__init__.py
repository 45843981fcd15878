"""Multi-core sharded serving over shared-memory snapshots.

The shard plane scales the snapshot-serving layer (``repro.serve``)
across processes without copying tables per worker:

* ``SharedSnapshot`` (codec) exports a compiled ``BatchLookup``'s numpy
  tables into one ``multiprocessing.shared_memory`` segment; attaching
  rebuilds the batch datapath over zero-copy read-only views, guarded
  by per-table digests.
* ``worker_main`` (worker) is the reader loop each ``ShardWorker``
  process runs: attach (and ack) each generation its task queue names,
  write each batch's word burst into private copies of the tables it
  touches, serve key slices.
* ``ShardCoordinator`` (coordinator) is the single writer: each batch
  starts with one cut of the router's served image, under its update
  lock, that reads the words patched since the last cut into a burst
  for every worker — or, when a burst cannot carry the change (a
  replan, an image swap, an overflowing tracker) or a worker was
  respawned, publishes a copy of the whole image as a new generation.
  A publish rides each worker's task queue ahead of the batches cut
  against it, and the coordinator retires the old segment once every
  worker acked the new one (the generation fence).  It partitions
  batches across workers and owns their lifecycle.

See docs/SHARDING.md for the full protocol and failure-mode table.
"""

from .bench import run_shard_bench, scaling_gate_active
from .codec import SharedSnapshot, SnapshotIntegrityError, table_digest
from .coordinator import ShardCoordinator, ShardError
from .worker import worker_main

__all__ = [
    "ShardCoordinator",
    "ShardError",
    "SharedSnapshot",
    "SnapshotIntegrityError",
    "run_shard_bench",
    "scaling_gate_active",
    "table_digest",
    "worker_main",
]
