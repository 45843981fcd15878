"""``ShardCoordinator`` — the single writer of the sharded serving plane.

Wraps a ``SnapshotRouter`` and keeps N worker processes' copies of its
served image current, over shared memory:

* **one cut per batch**: under the router's update lock,
  ``SnapshotRouter.image_cut`` reads the
  :class:`~repro.core.batch.WordTracker` every patch of the router's
  image feeds (``track_changes``) out into a **burst** — the words
  patched since the last cut and their current values (§4.4's
  "transfer the modified portions of the data structure").  Every
  worker writes it into its plans before answering, so the plane
  answers exactly like the router at the cut.
* **publish** copies the served image into a new segment inside the
  cut when a burst cannot carry the change (a replan, a grown
  sub-cell, a swapped image, a tracker past the ``WriteLog`` overflow
  rule), after a worker respawn, and on ``publish()``; never
  otherwise.  It never compiles the engine's tables, so a table word
  corrupted behind the router's back is never published.
* **one channel per worker**: a publish rides each worker's task queue
  as ``TASK_ATTACH`` ahead of any batch cut against it, and the worker
  acks on the results queue.  The coordinator keeps the acks: an old
  generation's segment is retired only after every live worker acked
  the new one (**the fence**), read by the same result handler the
  batch loop uses, so a batch in flight when a respawn publishes still
  gets its answers.  Dead workers are respawned on the current
  generation, never a stale one.
* **degraded serving**: while the router is not HEALTHY the cut is
  refused, so the coordinator serves through the router's exact trie
  fallback — workers keep the last healthy generation mapped but
  receive no traffic until recovery's image swap publishes.

Single-threaded by design: one coordinator thread both publishes and
serves (interleaving them is the caller's loop), which keeps the writer
side free of locks beyond the router's own update lock.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from queue import Empty
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.batch import _MISS, BatchLookup, BurstCell, WordTracker, normalize_keys
from ..obs import LATENCY_BUCKETS, get_registry
from ..serve.snapshot import RouterState, SnapshotRouter
from .codec import SharedSnapshot
from .names import fresh_nonce, reap_stale_segments, segment_name
from .worker import (
    RESULT_ATTACHED,
    RESULT_ERROR,
    TASK_ATTACH,
    TASK_BATCH,
    TASK_STOP,
    worker_main,
)

#: Poll interval while waiting on worker results / fence acks.
_POLL_SECONDS = 0.05

#: A burst as the workers receive it: the generation it was cut
#: against, and its cells.
Burst = Tuple[int, List[BurstCell]]


class ShardError(RuntimeError):
    """The sharded plane could not complete an operation."""


class ShardCoordinator:
    """Single-writer coordinator over N shard worker processes."""

    def __init__(self, router: SnapshotRouter, workers: int = 2,
                 batch_timeout: float = 60.0,
                 ack_timeout: float = 30.0) -> None:
        if workers < 1:
            raise ValueError("need at least one shard worker")
        self._tracker = WordTracker()
        # One plane per router: a second one is refused here, before any
        # queue, process or segment exists.  From the bootstrap publish's
        # cut on, every word patched into the image lands in the tracker.
        router.track_changes(self._tracker)
        self.router = router
        self.workers = workers
        self.batch_timeout = batch_timeout
        self.ack_timeout = ack_timeout
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        # Reap segments stranded by previous coordinators whose process
        # died without running close() — identified by the chz- name
        # convention plus a dead owning pid.  Best-effort by design.
        reap_stale_segments()
        self._nonce = fresh_nonce()
        self._generation = 0  # guarded-by: single-writer
        self._segment: Optional[SharedSnapshot] = None  # guarded-by: single-writer
        self._stale_segments: List[SharedSnapshot] = []  # guarded-by: single-writer
        #: Each worker's last acked generation, as its messages arrive.
        self._acks = [0] * workers  # guarded-by: single-writer
        self._tasks = [self._ctx.Queue() for _ in range(workers)]
        self._results = self._ctx.Queue()
        self._processes: List[Optional[multiprocessing.Process]] = (
            [None] * workers
        )
        self._batch_counter = 0  # guarded-by: single-writer
        #: The batch in flight: its answers, and the slices still owed.
        self._answers = np.empty(0, dtype=np.int64)  # guarded-by: single-writer
        self._pending: Dict[int, np.ndarray] = {}  # guarded-by: single-writer
        self._closed = False  # guarded-by: single-writer
        registry = get_registry()
        self._obs_batches = registry.counter(
            "shard_batches_total", "key batches served by the shard plane")
        self._obs_lookups = registry.counter(
            "shard_lookups_total", "keys answered by the shard plane")
        self._obs_publishes = registry.counter(
            "shard_publishes_total", "generations published to workers")
        self._obs_respawns = registry.counter(
            "shard_worker_respawns_total", "dead workers respawned")
        self._obs_fence_timeouts = registry.counter(
            "shard_fence_timeouts_total",
            "publishes whose ack fence timed out (old segment kept)",
        )
        self._obs_generation = registry.gauge(
            "shard_generation", "current published snapshot generation")
        self._obs_worker_count = registry.gauge(
            "shard_workers", "configured shard worker processes")
        self._obs_batch_seconds = registry.histogram(
            "shard_worker_batch_seconds", LATENCY_BUCKETS,
            "per-worker serve time for one batch slice",
        )
        self._obs_worker_rate = [
            registry.gauge(
                f"shard_worker_{worker_id}_klookups_per_sec",
                f"last observed serving rate of shard worker {worker_id}",
            )
            for worker_id in range(workers)
        ]
        self._obs_worker_count.set(workers)
        # Bootstrap: publish the router's served image before any worker
        # exists.
        self.publish()
        if self._segment is None:
            self.close()
            raise ShardError(
                "router is not HEALTHY: no trusted image to publish")
        for worker_id in range(workers):
            self._spawn(worker_id)
        # A coordinator that dies without close() would strand its
        # segments in /dev/shm; the atexit hook covers normal interpreter
        # exits, and reap_stale_segments() (above) covers kills.
        atexit.register(self.close)

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, worker_id: int) -> None:
        """Start a worker on the current generation."""
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self._generation,
                  self._segment_name(self._generation),
                  self._tasks[worker_id], self._results, os.getpid()),
            name=f"chisel-shard-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._processes[worker_id] = process

    def ensure_workers(self) -> int:
        """Respawn any dead workers, then publish; returns how many were
        respawned.  A respawned worker starts on the current generation,
        without the bursts its predecessor applied: the publish brings
        every worker to one image."""
        respawned = self._respawn_dead()
        if respawned:
            self.publish()
        return respawned

    def _respawn_dead(self) -> int:
        respawned = 0
        for worker_id, process in enumerate(self._processes):
            if process is not None and process.is_alive():
                continue
            if process is not None:
                process.join(timeout=0)
            # A worker killed while blocked in ``Queue.get`` dies holding
            # the queue's reader lock, poisoning it for any successor —
            # the respawn gets a fresh queue (it has no other reader).
            poisoned = self._tasks[worker_id]
            self._tasks[worker_id] = self._ctx.Queue()
            poisoned.close()
            poisoned.cancel_join_thread()
            self._spawn(worker_id)
            respawned += 1
            self._obs_respawns.inc()
            get_registry().trace(
                "shard_worker_respawned", worker=worker_id,
                generation=self._generation,
            )
        return respawned

    # -- partitioning --------------------------------------------------------

    def _partition(self, keys: np.ndarray) -> List[np.ndarray]:
        """Round-robin index arrays, one per worker, covering the batch
        exactly once."""
        return [
            np.arange(worker_id, len(keys), self.workers)
            for worker_id in range(self.workers)
        ]

    # -- serving -------------------------------------------------------------

    def lookup_batch(self, keys: Any) -> np.ndarray:
        """Next-hop ids for a key batch, served across the worker fleet.

        Input normalization matches ``BatchLookup.lookup_batch``: 1-D,
        scalars accepted, negative/oversized keys rejected with a clear
        ``ValueError`` before anything is enqueued to a worker.  Answers
        are the router's image's at this call's cut.
        """
        key_array = np.ascontiguousarray(
            normalize_keys(keys, self.router.width))
        if not len(key_array):
            return np.empty(0, dtype=np.int64)
        healthy, burst = self._cut(whole=False)
        if not healthy:
            # Degraded: the workers' tables are no longer trustworthy;
            # serve exactly through the router's trie fallback.
            return self.router.lookup_batch(key_array)
        self._batch_counter += 1
        batch_id = self._batch_counter
        out = self._answers = np.full(len(key_array), _MISS, dtype=np.int64)
        self._pending = {}
        for worker_id, indices in enumerate(self._partition(key_array)):
            # Every worker takes every burst, even with no keys to answer.
            if len(indices) or burst is not None:
                self._pending[worker_id] = indices
                self._tasks[worker_id].put(
                    (TASK_BATCH, batch_id, key_array[indices], burst))
        deadline = time.monotonic() + self.batch_timeout
        while self._pending:
            if self._poll():
                continue
            if time.monotonic() > deadline:
                raise ShardError(
                    f"batch {batch_id}: workers {sorted(self._pending)} did "
                    f"not answer within {self.batch_timeout}s"
                )
            # No result yet: respawn any dead workers and re-dispatch
            # their slices (crash recovery).  The respawn published a
            # generation past the burst, which the new worker skips; the
            # publish's fence collected the answers that came meanwhile.
            if not self.ensure_workers():
                continue
            if self.router.state is not RouterState.HEALTHY:
                # No generation holds the burst: the router answers.
                for indices in self._pending.values():
                    out[indices] = self.router.lookup_batch(
                        key_array[indices])
                self._pending = {}
            for worker_id, indices in self._pending.items():
                process = self._processes[worker_id]
                if process is None or not process.is_alive():
                    continue
                self._tasks[worker_id].put(
                    (TASK_BATCH, batch_id, key_array[indices], burst))
        self._obs_batches.inc()
        self._obs_lookups.inc(len(key_array))
        return out

    def _poll(self) -> bool:
        """Handle the next worker message; False if none came within
        one poll interval."""
        try:
            message = self._results.get(timeout=_POLL_SECONDS)
        except Empty:
            return False
        self._handle_result(message)
        return True

    def _handle_result(self, message: Any) -> None:
        """The one handler of worker messages, for the batch loop and
        the fence alike: an ack, an error, or a slice's answers."""
        kind = message[0]
        if kind == RESULT_ATTACHED:
            _kind, worker_id, generation = message
            self._acks[worker_id] = generation
            return
        if kind == RESULT_ERROR:
            _kind, worker_id, detail = message
            get_registry().trace(
                "shard_worker_error", worker=worker_id, error=detail)
            # The worker exits after reporting; the liveness pass will
            # respawn it and re-dispatch its slice.
            return
        _kind, worker_id, batch_id, answers, elapsed, served = message
        if batch_id != self._batch_counter or worker_id not in self._pending:
            # A stale duplicate from a re-dispatch; the answers for the
            # current batch already landed.
            return
        indices = self._pending.pop(worker_id)
        self._answers[indices] = answers
        self._obs_batch_seconds.observe(elapsed)
        if elapsed > 0:
            self._obs_worker_rate[worker_id].set(
                round(served / elapsed / 1000.0, 3))

    def lookup_many(self, keys: Any) -> List[Optional[int]]:
        """Convenience: python list with None for misses."""
        return [
            None if value == _MISS else int(value)
            for value in self.lookup_batch(keys)
        ]

    # -- publishing ----------------------------------------------------------

    def _segment_name(self, generation: int) -> str:
        """Reapable /dev/shm name for one generation's segment."""
        return segment_name(f"g{generation}", self._nonce)

    def _install(self, segment: SharedSnapshot) -> None:
        """Record a new generation and queue it to every spawned worker,
        ahead of any batch cut against it."""
        if self._segment is not None:
            self._stale_segments.append(self._segment)
        self._segment = segment
        self._generation = segment.generation
        for worker_id, process in enumerate(self._processes):
            if process is not None:
                self._tasks[worker_id].put(
                    (TASK_ATTACH, segment.generation, segment.name))
        self._obs_publishes.inc()
        self._obs_generation.set(segment.generation)

    def publish(self) -> float:
        """Copy the router's served image into a new generation; returns
        the seconds taken (0.0, publishing nothing, unless HEALTHY)."""
        started = time.perf_counter()
        healthy, _burst = self._cut(whole=True)
        if not healthy:
            return 0.0
        return time.perf_counter() - started

    def _cut(self, whole: bool) -> Tuple[bool, Optional[Burst]]:
        """One ``SnapshotRouter.image_cut``; returns ``(healthy, burst)``,
        the burst None if nothing changed or the cut published (the new
        segment is installed and fenced here, outside the router's lock)."""
        cut, healthy = self.router.image_cut(
            lambda image: self._render(image, whole))
        if not isinstance(cut, SharedSnapshot):
            return healthy, cut
        self._install(cut)
        if any(process is not None for process in self._processes):
            self._fence()
        return healthy, None

    def _render(self, image: BatchLookup,
                whole: bool) -> Union[SharedSnapshot, Burst, None]:
        """Cut ``image`` (router lock held): the tracker's words as a
        burst, or the image exported as the next generation when
        ``whole`` or the tracker owes a resync.  Clearing the tracker in
        the same critical section sends every later word to the next cut.
        """
        tracker = self._tracker
        cut: Union[SharedSnapshot, Burst, None] = None
        if whole or tracker.resync is not None:
            generation = self._generation + 1
            cut = SharedSnapshot.export(
                image, generation, name=self._segment_name(generation))
            # Never read back here: a mapping kept would be inherited
            # by every worker forked while it is current, and pin the
            # segment in that worker after it is retired.
            cut.close()
        else:
            cells = tracker.burst(image)
            if cells:
                cut = (self._generation, cells)
        tracker.clear()
        return cut

    def _fence(self) -> None:
        """Retire superseded segments once every worker acked the swap.

        A worker acks only what it attached, and attaches only what its
        queue or its spawn named, so no retired name is attached after.
        """
        generation = self._generation
        deadline = time.monotonic() + self.ack_timeout
        while min(self._acks) < generation:
            if time.monotonic() > deadline:
                # Keep the old segments (readers may still map them);
                # they are retired at close().  Never block serving
                # forever on a wedged fence.
                self._obs_fence_timeouts.inc()
                get_registry().trace(
                    "shard_fence_timeout", generation=generation,
                    acks=list(self._acks),
                )
                return
            if not self._poll():
                # A worker respawned here starts on the generation being
                # fenced, which no burst has been cut against yet.
                self._respawn_dead()
        for segment in self._stale_segments:
            segment.retire()
        self._stale_segments = []

    # -- introspection -------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._generation

    def worker_acks(self) -> List[int]:
        """Each worker's last acked generation, as read so far."""
        return list(self._acks)

    def metrics_dict(self) -> Dict[str, object]:
        payload = self.router.metrics_dict()
        payload.update({
            "shard_workers": self.workers,
            "shard_generation": self._generation,
            "shard_worker_acks": self.worker_acks(),
        })
        return payload

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and release every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        self.router.untrack_changes(self._tracker)
        for worker_id, process in enumerate(self._processes):
            if process is not None and process.is_alive():
                self._tasks[worker_id].put((TASK_STOP,))
        deadline = time.monotonic() + timeout
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for queue in self._tasks + [self._results]:
            queue.close()
            queue.cancel_join_thread()
        for segment in self._stale_segments:
            segment.retire()
        self._stale_segments = []
        if self._segment is not None:
            self._segment.retire()
            self._segment = None

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            # Interpreter shutdown can have already reclaimed the queues;
            # nothing left worth surfacing.
            return
