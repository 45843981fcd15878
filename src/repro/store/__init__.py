"""Crash-consistent persistent snapshot store (mmap checkpoints + WAL).

Boot becomes "map the newest valid checkpoint, replay the tail" instead
of a full compile:

* :mod:`repro.store.checkpoint` — versioned on-disk snapshot images
  (magic + header + 64-byte-aligned payload + per-block checksums,
  sharing the :mod:`repro.shard.codec` layout) written via
  tmp-file + fsync + rename-into-place and read back through ``mmap``.
* :mod:`repro.store.deltalog` — the append-only journal of route
  commands: length-prefixed CRC-framed records with fsync-per-append
  discipline and torn-tail-tolerant replay.
* :mod:`repro.store.records` — the binary record codec: one sequenced
  ANNOUNCE or WITHDRAW command per record.
* :mod:`repro.store.store` — :class:`SnapshotStore`, the single-writer
  store that journals a :class:`repro.serve.snapshot.SnapshotRouter`'s
  updates and cuts periodic checkpoints.
* :mod:`repro.store.boot` — cold start: recover the newest valid
  checkpoint chain, replay the tail through the router, fall back and
  degrade per the documented matrix (docs/PERSISTENCE.md).
* :mod:`repro.store.crash` — the deterministic kill-anywhere harness
  behind ``chisel-repro crash``.
"""

from .checkpoint import (
    CheckpointCorruptError,
    MappedCheckpoint,
)
from .deltalog import DeltaLog, LogReplay, replay_log
from .records import (
    ANNOUNCE,
    WITHDRAW,
    LogRecord,
    RecordDecodeError,
    decode_record,
    encode_record,
)
from .store import CheckpointPolicy, SnapshotStore, StoreError
from .boot import BootResult, RecoveryError, RecoveryReport, cold_start

__all__ = [
    "ANNOUNCE",
    "WITHDRAW",
    "BootResult",
    "CheckpointCorruptError",
    "CheckpointPolicy",
    "DeltaLog",
    "LogRecord",
    "LogReplay",
    "MappedCheckpoint",
    "RecordDecodeError",
    "RecoveryError",
    "RecoveryReport",
    "SnapshotStore",
    "StoreError",
    "cold_start",
    "decode_record",
    "encode_record",
    "replay_log",
]
