"""Multi-core sharded serving over shared-memory snapshots.

The shard plane scales the snapshot-serving layer (``repro.serve``)
across processes without copying tables per worker:

* ``SharedSnapshot`` (codec) exports a compiled ``BatchLookup``'s numpy
  tables into one ``multiprocessing.shared_memory`` segment; attaching
  rebuilds the batch datapath over zero-copy read-only views, guarded
  by per-table digests.
* ``ControlBlock`` (control) is the generation fence: a seqlock publish
  word naming the current segment, plus per-worker ack slots.
* ``worker_main`` (worker) is the reader loop each ``ShardWorker``
  process runs: re-attach on generation change, serve key slices,
  bounce keys under changed prefixes back to the writer.
* ``ShardCoordinator`` (coordinator) is the single writer: it owns the
  set of prefixes changed since its last publish, partitions batches
  across workers, re-answers the bounced keys from the router's served
  image, and publishes each generation as a copy of that image, cut
  under the router's update lock so no update or scrub repair lands
  mid-export.

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
