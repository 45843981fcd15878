"""``ShardWorker`` — one reader process of the sharded serving plane.

Each worker attaches the generation currently named by the control block,
rebuilds the zero-copy batch datapath over it, and serves the key slices
the coordinator queues to it.  The loop enforces the generation fence
from the reader side:

* **before every batch** the control block is re-read; if the published
  generation moved, the worker re-attaches (verifying the segment
  checksum) and acks the new generation *before* serving — so no batch
  is ever answered from a generation older than the one current at
  dispatch time (the coordinator publishes before it dispatches);
* keys covered by the batch's overlay arrays (the prefixes changed since
  the segment was published, which it cannot be trusted for) are *not*
  answered here — their indices go back to the coordinator, which
  re-answers them from the router's served image;
* counters (keys served, serve seconds, generation) ride every result
  message and are folded into the ``repro.obs`` registry by the
  coordinator — workers never touch the registry themselves, so the
  aggregated metrics stay single-writer.

A worker that hits an unrecoverable error reports it on the results
queue and exits nonzero; the coordinator's liveness check respawns it
(tests/test_shard.py::test_worker_crash_recovery).
"""

from __future__ import annotations

import os
import time
from queue import Empty
from typing import Any, Optional

import numpy as np

from ..core.batch import normalize_keys
from ..serve.snapshot import overlay_mask
from .codec import SharedBatchLookup, SharedSnapshot, SnapshotIntegrityError
from .control import ControlBlock

#: Task tuples: (kind, *payload).  Results mirror the shape.
TASK_BATCH = "batch"
TASK_SYNC = "sync"
TASK_STOP = "stop"

RESULT_BATCH = "result"
RESULT_ERROR = "error"
RESULT_STOPPED = "stopped"

#: Attach backoff: exponential from the floor to the cap, bounded in
#: total.  An attach races the coordinator's ack-fenced retirement —
#: the name read from the control block can be unlinked (or still half
#: written) by the time the worker maps it — so failures here are
#: expected transients, retried against the *current* generation, not
#: crashes.
_ATTACH_BACKOFF_FLOOR = 0.001
_ATTACH_BACKOFF_CAP = 0.05
_ATTACH_RETRIES = 200

#: How long a worker blocks on the task queue before checking whether
#: its coordinator is still alive.  A hard-killed coordinator never
#: sends ``TASK_STOP``; without this poll its daemon workers would sit
#: in ``queue.get()`` forever, pinning their inherited file descriptors
#: and shared-memory mappings (the second flavour of stranded resource
#: besides the /dev/shm segments themselves).
_ORPHAN_POLL_SECONDS = 1.0

#: Attach failures that mean "this name is gone or mid-transition":
#: FileNotFoundError (retired before we mapped it), SnapshotIntegrityError
#: (mapped a segment whose checksums no longer cohere — superseded or
#: truncated under us), ValueError (zero-size map of a segment being
#: torn down).
_ATTACH_TRANSIENTS = (FileNotFoundError, SnapshotIntegrityError, ValueError)


class _WorkerRuntime:
    """Per-process serving state: the attached generation and its views."""

    def __init__(self, worker_id: int, control: ControlBlock) -> None:
        self.worker_id = worker_id
        self.control = control
        self.segment: Optional[SharedSnapshot] = None
        self.lookup: Optional[SharedBatchLookup] = None
        self.generation = 0

    def ensure_current(self) -> SharedBatchLookup:
        """Attach the generation the control block names, if it moved.

        Returns the lookup serving that generation, so callers never
        have to dereference the ``Optional`` attribute themselves.
        """
        generation, name, _state = self.control.read()
        if generation == self.generation and self.lookup is not None:
            return self.lookup
        last_error: Optional[Exception] = None
        backoff = _ATTACH_BACKOFF_FLOOR
        for _attempt in range(_ATTACH_RETRIES):
            # Re-read every attempt: a failure usually means the name we
            # held was retired, and the control block already names the
            # successor generation.
            generation, name, _state = self.control.read()
            try:
                segment = SharedSnapshot.attach(name, verify=True)
            except _ATTACH_TRANSIENTS as error:
                last_error = error
                time.sleep(backoff)
                backoff = min(backoff * 2, _ATTACH_BACKOFF_CAP)
                continue
            if segment.generation != generation:
                # The control block moved on while we attached; this
                # segment is not the one currently named.  Retry against
                # the fresh name.
                segment.close()
                time.sleep(backoff)
                backoff = min(backoff * 2, _ATTACH_BACKOFF_CAP)
                continue
            return self._swap_to(segment)
        raise RuntimeError(
            f"worker {self.worker_id}: could not attach generation "
            f"{generation} ({name!r}): {last_error}"
        )

    def _swap_to(self, segment: SharedSnapshot) -> SharedBatchLookup:
        previous = self.segment
        self.segment = segment
        self.lookup = segment.to_lookup()
        self.generation = segment.generation
        self.control.ack(self.worker_id, self.generation)
        if previous is not None:
            # SharedSnapshot.close tolerates stray views (leaks the
            # mapping until process exit rather than crash the loop).
            previous.close()
        return self.lookup

    def close(self) -> None:
        # Drop the lookup's zero-copy views before the mapping so the
        # segment close does not have to leak it.
        self.lookup = None
        if self.segment is not None:
            self.segment.close()
            self.segment = None
        self.control.close()


def worker_main(worker_id: int, control_name: str, task_queue: Any,
                result_queue: Any, parent_pid: int) -> int:
    """The worker process entry point (module-level: spawn-safe).

    ``parent_pid`` is the coordinator's pid as the coordinator saw it
    at spawn time.  Reading ``os.getppid()`` here instead would race a
    coordinator killed before this process got that far: the worker
    would record the reaper's pid and never notice it was orphaned.
    """
    runtime = _WorkerRuntime(worker_id, ControlBlock.attach(control_name))
    try:
        runtime.ensure_current()
        while True:
            try:
                task = task_queue.get(timeout=_ORPHAN_POLL_SECONDS)
            except Empty:
                # Coordinator hard-killed (we were re-parented): exit so
                # we do not strand mappings and inherited descriptors.
                if os.getppid() != parent_pid:
                    return 2
                continue
            kind = task[0]
            if kind == TASK_STOP:
                result_queue.put((RESULT_STOPPED, worker_id))
                return 0
            if kind == TASK_SYNC:
                runtime.ensure_current()
                continue
            if kind != TASK_BATCH:
                raise ValueError(f"unknown shard task kind {kind!r}")
            _kind, batch_id, keys, overlay = task
            lookup = runtime.ensure_current()
            started = time.perf_counter()
            # Same normalization as every other batch entry point: a bad
            # key batch must raise a clear ValueError here (reported via
            # RESULT_ERROR) instead of an opaque OverflowError or a 0-d
            # crash deep inside the datapath.
            key_array = normalize_keys(keys)
            answers = lookup.lookup_batch(key_array)
            unresolved = np.flatnonzero(
                overlay_mask(key_array, overlay, lookup.width)
            ) if overlay else np.empty(0, dtype=np.int64)
            elapsed = time.perf_counter() - started
            result_queue.put((
                RESULT_BATCH, worker_id, batch_id, runtime.generation,
                answers, unresolved, elapsed, len(key_array),
            ))
    except KeyboardInterrupt:
        return 130
    except Exception as error:
        # Surface the failure to the coordinator before dying; it owns
        # the respawn decision.
        result_queue.put((RESULT_ERROR, worker_id, repr(error)))
        return 1
    finally:
        runtime.close()
