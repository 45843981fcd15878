"""``SnapshotStore`` — the single-writer persistent store.

Directory layout (one store, one writer)::

    <dir>/checkpoint-00000001.chz     versioned mmap checkpoint images
    <dir>/checkpoint-00000002.chz
    <dir>/delta-00000001.log          one WAL per checkpoint generation
    <dir>/delta-00000002.log

Write path: every route update journaled by the attached
:class:`~repro.serve.snapshot.SnapshotRouter` becomes one CRC-framed log
record, fsynced before the update is acknowledged (``sync=True``).
Checkpoints render a coherent (compiled image, pickled FIB) cut under
the router's update lock, write it tmp+fsync+rename, rotate to a fresh
log, and prune old generations.  The ordering — log append →
fsync → checkpoint rename-into-place — means a crash at *any* boundary
loses at most the un-acked suffix: recovery maps the newest valid
checkpoint and replays the tail (see :mod:`repro.store.boot`).

Thread model: the store is driven from whoever holds the router's
update lock (journal callbacks run under it; ``checkpoint`` takes its
cut under it).  There is exactly one writer, matching the shard
coordinator's single-writer design.
"""

from __future__ import annotations

import os
import pickle
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..core.image import HardwareImage, ImageDelta
from ..obs import LATENCY_BUCKETS, get_registry
from .checkpoint import fsync_directory, render_checkpoint, write_image
from .crashpoints import crashpoint
from .deltalog import DeltaLog
from .records import ANNOUNCE, WITHDRAW, LogRecord, encode_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.snapshot import SnapshotRouter

_CKPT_PATTERN = re.compile(r"^checkpoint-(\d{8})\.chz$")
_TMP_SUFFIX = ".tmp"


class StoreError(RuntimeError):
    """The store cannot satisfy a request (bad state, degraded router)."""


def checkpoint_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"checkpoint-{generation:08d}.chz")


def log_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"delta-{generation:08d}.log")


def list_generations(directory: str) -> List[int]:
    """Checkpoint generations present on disk, ascending."""
    generations: List[int] = []
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return generations
    for entry in entries:
        match = _CKPT_PATTERN.match(entry)
        if match is not None:
            generations.append(int(match.group(1)))
    return sorted(generations)


def sweep_tmp_files(directory: str) -> int:
    """Remove half-written ``.tmp`` checkpoints left by a crashed writer."""
    removed = 0
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return removed
    for entry in entries:
        if entry.endswith(_TMP_SUFFIX):
            try:
                os.unlink(os.path.join(directory, entry))
                removed += 1
            except OSError:
                continue
    return removed


@dataclass
class CheckpointPolicy:
    """When to cut a checkpoint, and how many generations to keep."""

    every_records: int = 256
    retain: int = 2

    def due(self, records_since_checkpoint: int) -> bool:
        return (self.every_records > 0
                and records_since_checkpoint >= self.every_records)


class SnapshotStore:
    """Journal + checkpoint writer for one ``SnapshotRouter``."""

    def __init__(self, directory: str,
                 policy: Optional[CheckpointPolicy] = None,
                 sync: bool = True, capture_deltas: bool = False) -> None:
        self.directory = directory
        self.policy = policy or CheckpointPolicy()
        self.sync = sync
        self.capture_deltas = capture_deltas
        self._router: Optional["SnapshotRouter"] = None
        self._log: Optional[DeltaLog] = None
        self._generation = 0
        self._seq = 0
        self._durable_seq = 0
        self._records_since_checkpoint = 0
        self._mirror: Optional[HardwareImage] = None
        self._closed = False
        registry = get_registry()
        self._obs_append = registry.histogram(
            "store_append_seconds", LATENCY_BUCKETS,
            "delta-log record append incl. fsync")
        self._obs_checkpoint = registry.histogram(
            "store_checkpoint_seconds", LATENCY_BUCKETS,
            "checkpoint cut + write + rename + log rotation")
        self._obs_records = registry.counter(
            "store_records_total", "delta-log records appended")
        self._obs_checkpoints = registry.counter(
            "store_checkpoints_total", "checkpoints written")
        self._obs_generation = registry.gauge(
            "store_generation", "newest checkpoint generation on disk")
        self._obs_seq = registry.gauge(
            "store_seq", "last journaled update sequence number")

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, directory: str, router: "SnapshotRouter",
               policy: Optional[CheckpointPolicy] = None,
               sync: bool = True,
               capture_deltas: bool = False,
               seq: int = 0) -> "SnapshotStore":
        """Initialize a store from a live router and attach its journal.

        Works over an empty directory (generation 1) or a damaged one
        being rebuilt (next generation after whatever survives); the
        first checkpoint captures the router's current serving cut.

        ``seq`` seeds the absolute sequence counter.  A boot that
        re-checkpoints a recovered router MUST pass the recovered seq:
        sequence numbers are the cross-generation chaining key, and a
        reset-to-zero lineage would make every post-boot record look
        like a stale duplicate if a later recovery falls back past the
        boot checkpoint.
        """
        os.makedirs(directory, exist_ok=True)
        sweep_tmp_files(directory)
        store = cls(directory, policy=policy, sync=sync,
                    capture_deltas=capture_deltas)
        store._router = router
        store._seq = seq
        store._durable_seq = seq
        existing = list_generations(directory)
        store._generation = existing[-1] if existing else 0
        store.checkpoint()
        if capture_deltas:
            store._mirror = HardwareImage.snapshot(router.fib.engine)
        router.add_journal(store.record_update)
        return store

    @classmethod
    def resume(cls, directory: str, router: "SnapshotRouter",
               generation: int, seq: int, log_valid_length: int,
               policy: Optional[CheckpointPolicy] = None,
               sync: bool = True,
               capture_deltas: bool = False) -> "SnapshotStore":
        """Continue appending to a recovered store (see ``boot``).

        ``log_valid_length`` is the replay-validated byte count of the
        newest log; a torn tail beyond it is truncated so new records
        chain onto the durable prefix.
        """
        store = cls(directory, policy=policy, sync=sync,
                    capture_deltas=capture_deltas)
        store._router = router
        store._generation = generation
        store._seq = seq
        store._durable_seq = seq
        newest = list_generations(directory)
        tail_generation = newest[-1] if newest else generation
        store._log = DeltaLog.open_append(
            log_path(directory, tail_generation), tail_generation,
            log_valid_length, sync=sync,
        )
        if capture_deltas:
            store._mirror = HardwareImage.snapshot(router.fib.engine)
        router.add_journal(store.record_update)
        store._obs_generation.set(store._generation)
        store._obs_seq.set(store._seq)
        return store

    # -- journal -------------------------------------------------------------

    def record_update(self, op: str, prefix_value: int, prefix_length: int,
                      gateway: str, interface: str) -> None:
        """Append one route update to the log (router lock held).

        Called synchronously by the router's journal hook *after* the
        update applied to the engine: a crash before the append loses
        only the never-acknowledged update; a crash after it is replayed
        on boot.  Both end states equal a golden rebuild of a prefix of
        the update sequence.
        """
        if self._closed or self._log is None:
            raise StoreError(f"store {self.directory} is not accepting "
                             f"records (closed or unattached)")
        self._seq += 1
        delta = self._capture_delta() if self.capture_deltas else None
        record = LogRecord(
            op=ANNOUNCE if op == "announce" else WITHDRAW,
            seq=self._seq, prefix_value=prefix_value,
            prefix_length=prefix_length, gateway=gateway or "",
            interface=interface or "", delta=delta,
        )
        started = time.perf_counter()
        self._log.append(encode_record(record))
        self._obs_append.observe(time.perf_counter() - started)
        self._durable_seq = self._seq
        self._records_since_checkpoint += 1
        self._obs_records.inc()
        self._obs_seq.set(self._seq)

    def _capture_delta(self) -> Optional[ImageDelta]:
        router = self._router
        if router is None:
            return None
        current = HardwareImage.snapshot(router.fib.engine)
        delta = (self._mirror.diff(current)
                 if self._mirror is not None else None)
        self._mirror = current
        return delta

    # -- checkpointing -------------------------------------------------------

    def maybe_checkpoint(self) -> bool:
        """Cut a checkpoint when the policy says one is due."""
        if self.policy.due(self._records_since_checkpoint):
            self.checkpoint()
            return True
        return False

    def checkpoint(self) -> int:
        """Cut, write and rotate one checkpoint; returns its generation.

        The cut (compiled image + pickled FIB) is rendered under the
        router's update lock, so it is one coherent serving state at one
        sequence number (journal appends run under that lock too).
        Refused while the router is degraded: a checkpoint of
        untrustworthy tables would poison every future boot.
        """
        router = self._router
        if router is None or self._closed:
            raise StoreError(f"store {self.directory}: no router attached")
        started = time.perf_counter()
        generation = self._generation + 1
        image, healthy = router.persistence_cut(
            lambda snapshot, fib_blob: render_checkpoint(
                snapshot, generation, self._seq, blobs={"fib": fib_blob}))
        if not healthy:
            raise StoreError(
                "checkpoint refused: router is degraded (tables are not "
                "trustworthy); recover first"
            )
        write_image(checkpoint_path(self.directory, generation), image)
        new_log = DeltaLog.create(log_path(self.directory, generation),
                                  generation, sync=self.sync)
        fsync_directory(self.directory)
        crashpoint("ckpt:log-rotated")
        if self._log is not None:
            self._log.close()
        self._log = new_log
        self._generation = generation
        self._records_since_checkpoint = 0
        self._prune(generation)
        crashpoint("ckpt:pruned")
        self._obs_checkpoint.observe(time.perf_counter() - started)
        self._obs_checkpoints.inc()
        self._obs_generation.set(generation)
        return generation

    def _prune(self, newest: int) -> None:
        """Best-effort removal of generations beyond the retain window."""
        cutoff = newest - max(self.policy.retain, 1) + 1
        for generation in list_generations(self.directory):
            if generation >= cutoff:
                continue
            for path in (checkpoint_path(self.directory, generation),
                         log_path(self.directory, generation)):
                try:
                    os.unlink(path)
                except OSError:
                    continue

    # -- introspection / lifecycle ------------------------------------------

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def durable_seq(self) -> int:
        return self._durable_seq

    @property
    def records_since_checkpoint(self) -> int:
        return self._records_since_checkpoint

    def close(self) -> None:
        """Detach this store's journal hook and close the log (idempotent).

        Any other hook on the router (a replication coordinator's) stays.
        """
        if self._closed:
            return
        self._closed = True
        router = self._router
        if router is not None:
            router.remove_journal(self.record_update)
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "SnapshotStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
