"""Cold start: map the newest valid checkpoint, replay the tail.

Recovery walks checkpoint generations newest-first.  For each candidate
it digest-verifies the image, mapped copy-on-write, unpickles the FIB
blob and chains the delta logs from that generation forward, replaying
their valid prefixes.  Replay patches the mapped image's private pages
— never the file, and never a whole-plan copy.  Any damage — bad magic, checksum mismatch, mid-log CRC
failure, sequence gap — is *detected and classified*, never served:

* a damaged newest checkpoint falls back to the previous generation
  (whose logs still chain to the present, so no durable record is lost);
* a torn final log record is truncated away (it was never acknowledged);
* damage in the middle of a durable log stops replay at the last clean
  record — the store serves a correct prefix of history and reports the
  loss rather than guessing at records beyond the damage;
* when every checkpoint is damaged, bounded retries with exponential
  backoff run first (transient I/O), then the boot degrades to a full
  recompile from ``bootstrap`` (the pre-store cold-start cost) or raises.

Replay drives the recovered updates through the same
``SnapshotRouter.announce``/``withdraw`` path the writer used, so the
recovered engine is byte-identical to a golden rebuild of the same
update prefix (the ``chisel-repro crash`` harness gates on exactly
this).  When records carry ``ImageDelta`` payloads, an independent
word-level reconstruction cross-checks the replayed engine image —
divergence raises instead of serving.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..core.config import ChiselConfig
from ..core.image import HardwareImage
from ..obs import LATENCY_BUCKETS, get_registry
from ..prefix.prefix import Prefix
from ..prefix.table import RoutingTable
from ..router.fib import ForwardingEngine
from ..serve.snapshot import SnapshotRouter
from ..shard.codec import SharedBatchLookup, SnapshotIntegrityError
from .checkpoint import (
    CheckpointCorruptError,
    MappedCheckpoint,
    load_checkpoint,
)
from .deltalog import replay_log
from .records import (
    ANNOUNCE,
    WITHDRAW,
    LogRecord,
    RecordDecodeError,
    apply_delta,
)
from .store import (
    CheckpointPolicy,
    SnapshotStore,
    checkpoint_path,
    list_generations,
    log_path,
    sweep_tmp_files,
)

class RecoveryError(RuntimeError):
    """No checkpoint chain could be recovered from the store directory."""


@dataclass
class RecoveryReport:
    """What recovery found, used and refused."""

    boot: str = "replay"  # replay | recompile
    generation: int = 0
    checkpoint_seq: int = 0
    seq: int = 0
    updates_replayed: int = 0
    markers_seen: int = 0
    fallbacks: int = 0
    attempts: int = 1
    torn_tail: bool = False
    chain_broken: bool = False
    duplicates_skipped: int = 0
    deep_verified: bool = False
    rejected: List[str] = field(default_factory=list)
    damage: List[str] = field(default_factory=list)
    replay_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "boot": self.boot,
            "generation": self.generation,
            "checkpoint_seq": self.checkpoint_seq,
            "seq": self.seq,
            "updates_replayed": self.updates_replayed,
            "markers_seen": self.markers_seen,
            "fallbacks": self.fallbacks,
            "attempts": self.attempts,
            "torn_tail": self.torn_tail,
            "chain_broken": self.chain_broken,
            "duplicates_skipped": self.duplicates_skipped,
            "deep_verified": self.deep_verified,
            "rejected": list(self.rejected),
            "damage": list(self.damage),
            "replay_seconds": round(self.replay_seconds, 6),
        }


@dataclass
class _RecoveredState:
    checkpoint: MappedCheckpoint
    lookup: SharedBatchLookup
    generation: int
    checkpoint_seq: int
    fib_blob: bytes
    tail: List[LogRecord]
    seq: int
    torn_tail: bool
    chain_broken: bool
    duplicates: int
    damage: List[str]
    rejected: List[str]
    fallbacks: int
    tail_valid_length: int


@dataclass
class BootResult:
    """A served-and-journaled router recovered from disk."""

    router: SnapshotRouter
    store: SnapshotStore
    report: RecoveryReport
    checkpoint: Optional[MappedCheckpoint] = None


def _chain_logs(directory: str, start_generation: int, start_seq: int,
                state_damage: List[str]) -> Tuple[List[LogRecord], int,
                                                  bool, bool, int, int]:
    """Replay logs ``start_generation..newest``; returns the tail.

    -> (records, last_seq, torn_tail, chain_broken, duplicates,
        newest_log_valid_length)
    """
    generations = list_generations(directory)
    newest = generations[-1] if generations else start_generation
    records: List[LogRecord] = []
    last_seq = start_seq
    torn_tail = False
    chain_broken = False
    duplicates = 0
    valid_length = 0
    for generation in range(start_generation, newest + 1):
        replay = replay_log(log_path(directory, generation),
                            start_seq=last_seq,
                            expected_generation=generation)
        duplicates += replay.duplicates_skipped
        if replay.status == "missing":
            # A crash between checkpoint rename and log rotation: no
            # record can exist beyond this point.
            if generation < newest:
                chain_broken = True
                state_damage.append(
                    f"delta-{generation:08d}.log missing mid-chain")
            break
        records.extend(replay.records)
        for record in replay.records:
            if record.is_update:
                last_seq = record.seq
        if generation == newest:
            valid_length = replay.valid_length
        if replay.status == "torn":
            torn_tail = True
            if generation < newest:
                # Records were lost *between* logs; later logs cannot
                # chain (their records would gap).  Serve the clean
                # prefix and say so.
                chain_broken = True
                state_damage.append(
                    f"delta-{generation:08d}.log torn mid-chain: "
                    f"{replay.detail}")
            else:
                state_damage.append(
                    f"delta-{generation:08d}.log torn tail: "
                    f"{replay.detail}")
            break
        if replay.damaged:
            chain_broken = True
            state_damage.append(
                f"delta-{generation:08d}.log {replay.status}: "
                f"{replay.detail}")
            break
    return records, last_seq, torn_tail, chain_broken, duplicates, valid_length


def _recover_state(directory: str) -> _RecoveredState:
    """Newest recoverable (checkpoint, tail) pair, or ``RecoveryError``."""
    registry = get_registry()
    generations = list_generations(directory)
    if not generations:
        raise RecoveryError(
            f"{directory}: no checkpoints found (not a store?)")
    rejected: List[str] = []
    fallbacks = 0
    refused = registry.counter(
        "store_checkpoints_rejected_total",
        "checkpoints refused by recovery (bad header/checksum)",
    )
    for generation in reversed(generations):
        path = checkpoint_path(directory, generation)
        try:
            checkpoint = load_checkpoint(path)
        except CheckpointCorruptError as error:
            rejected.append(str(error))
            refused.inc()
            fallbacks += 1
            continue
        try:
            fib_blob = checkpoint.blob("fib")
        except KeyError:
            checkpoint.close()
            rejected.append(f"checkpoint {path}: missing FIB blob")
            fallbacks += 1
            continue
        try:
            lookup = checkpoint.to_lookup()
        except SnapshotIntegrityError as error:
            # Checksums held but the datapath cannot be rebuilt (a
            # layout this reader does not serve): same fallback as a
            # corrupt checkpoint.
            checkpoint.close()
            rejected.append(str(error))
            refused.inc()
            fallbacks += 1
            continue
        damage: List[str] = []
        (tail, last_seq, torn_tail, chain_broken, duplicates,
         valid_length) = _chain_logs(
            directory, generation, checkpoint.seq, damage)
        if torn_tail:
            registry.counter(
                "store_torn_tails_total",
                "torn final log records truncated by recovery").inc()
        if chain_broken:
            registry.counter(
                "store_corrupt_logs_total",
                "log damage beyond a torn tail found by recovery").inc()
        return _RecoveredState(
            checkpoint=checkpoint, lookup=lookup, generation=generation,
            checkpoint_seq=checkpoint.seq, fib_blob=fib_blob, tail=tail,
            seq=last_seq, torn_tail=torn_tail, chain_broken=chain_broken,
            duplicates=duplicates, damage=damage, rejected=rejected,
            fallbacks=fallbacks, tail_valid_length=valid_length,
        )
    raise RecoveryError(
        f"{directory}: every checkpoint failed validation: "
        + "; ".join(rejected)
    )


def _replay_tail(router: SnapshotRouter, fib: ForwardingEngine,
                 state: _RecoveredState,
                 report: RecoveryReport) -> None:
    """Re-apply the tail through the live update path; cross-check deltas."""
    width = fib.width
    mirror: Optional[HardwareImage] = None
    updates = [record for record in state.tail if record.is_update]
    if updates and all(record.delta is not None for record in updates):
        mirror = HardwareImage.snapshot(fib.engine)
    for record in state.tail:
        if record.op == ANNOUNCE:
            router.announce(Prefix(record.prefix_value,
                                   record.prefix_length, width),
                            record.gateway, record.interface)
            report.updates_replayed += 1
        elif record.op == WITHDRAW:
            router.withdraw(Prefix(record.prefix_value,
                                   record.prefix_length, width))
            report.updates_replayed += 1
        else:
            report.markers_seen += 1
            continue
        if mirror is not None and record.delta is not None:
            try:
                apply_delta(mirror.tables, record.delta)
            except RecordDecodeError as error:
                raise RecoveryError(
                    f"delta replay diverged at seq {record.seq}: {error}"
                ) from error
    if mirror is not None:
        current = HardwareImage.snapshot(fib.engine)
        forward = mirror.diff(current)
        backward = current.diff(mirror)
        if forward.word_count or backward.word_count:
            raise RecoveryError(
                f"delta cross-check failed: engine replay and word-level "
                f"delta replay disagree on {forward.word_count + backward.word_count} "
                f"words — refusing to serve"
            )
        report.deep_verified = True


def cold_start(directory: str,
               policy: Optional[CheckpointPolicy] = None,
               sync: bool = True,
               capture_deltas: bool = False,
               retries: int = 3,
               backoff: float = 0.05,
               sleep: Callable[[float], None] = time.sleep,
               bootstrap: Optional[RoutingTable] = None,
               config: Optional[ChiselConfig] = None,
               checkpoint_on_boot: bool = True) -> BootResult:
    """Boot a serving router from a store directory.

    Happy path: map the newest valid checkpoint copy-on-write, rebuild
    the ``BatchLookup`` as views over the mapping (no recompile), replay
    the log tail through the live update path (each update patches the
    mapped image), re-attach the journal and — by default — cut a fresh
    checkpoint so repeated crash/boot cycles never accumulate tail.

    Failure path: bounded retries with exponential backoff around the
    whole recovery, then degrade to a full recompile from ``bootstrap``
    when one is provided (losing the journaled updates is *reported*,
    not silent), else raise :class:`RecoveryError`.
    """
    registry = get_registry()
    replay_hist = registry.histogram(
        "store_replay_seconds", LATENCY_BUCKETS,
        "cold-start recovery: map + unpickle + tail replay")
    report = RecoveryReport()
    attempts = max(retries, 1)
    state: Optional[_RecoveredState] = None
    last_error: Optional[Exception] = None
    started = time.perf_counter()
    for attempt in range(attempts):
        report.attempts = attempt + 1
        try:
            state = _recover_state(directory)
            break
        except RecoveryError as error:
            last_error = error
            if attempt + 1 < attempts:
                sleep(backoff * (2 ** attempt))
    if state is None:
        registry.counter(
            "store_recovery_failures_total",
            "recovery attempts that found no usable checkpoint").inc()
        if bootstrap is None:
            if last_error is None:  # unreachable: retries>=1 set it
                raise RecoveryError("recovery failed with no error recorded")
            raise last_error
        # Degrade to the pre-store boot cost: full build from the
        # authoritative table.  Journaled updates are gone — reported
        # loudly via boot="recompile" and the rejected list.
        fib = ForwardingEngine.from_table(bootstrap, config=config)
        router = SnapshotRouter(fib)
        report.boot = "recompile"
        report.rejected.append(str(last_error))
        sweep_tmp_files(directory)
        store = SnapshotStore.create(directory, router, policy=policy,
                                     sync=sync,
                                     capture_deltas=capture_deltas)
        report.generation = store.generation
        report.replay_seconds = time.perf_counter() - started
        return BootResult(router=router, store=store, report=report)
    report.generation = state.generation
    report.checkpoint_seq = state.checkpoint_seq
    report.seq = state.seq
    report.fallbacks = state.fallbacks
    report.torn_tail = state.torn_tail
    report.chain_broken = state.chain_broken
    report.duplicates_skipped = state.duplicates
    report.rejected = list(state.rejected)
    report.damage = list(state.damage)
    try:
        fib = pickle.loads(state.fib_blob)
    except Exception as error:
        # The blob is checksummed, so this is version skew, not rot;
        # surface it as a recovery failure rather than a crash.
        state.checkpoint.close()
        raise RecoveryError(
            f"checkpoint generation {state.generation}: FIB blob failed "
            f"to unpickle: {error}") from error
    router = SnapshotRouter(fib, initial_snapshot=state.lookup)
    _replay_tail(router, fib, state, report)
    report.replay_seconds = time.perf_counter() - started
    replay_hist.observe(report.replay_seconds)
    registry.counter(
        "store_recoveries_total", "successful cold-start recoveries").inc()
    if state.fallbacks:
        registry.counter(
            "store_recovery_fallbacks_total",
            "recoveries that used an older checkpoint generation").inc()
    sweep_tmp_files(directory)
    if checkpoint_on_boot or state.chain_broken:
        # A fresh generation makes recovery itself crash-consistent
        # (no in-place log surgery survives a crash-during-boot) and
        # bounds boot time across repeated crash cycles.  Seeding the
        # recovered seq keeps the cross-generation sequence lineage
        # intact: a later fallback past this checkpoint must see the
        # post-boot records as successors, not stale duplicates.
        store = SnapshotStore.create(directory, router, policy=policy,
                                     sync=sync,
                                     capture_deltas=capture_deltas,
                                     seq=state.seq)
    else:
        store = SnapshotStore.resume(
            directory, router, generation=state.generation,
            seq=state.seq, log_valid_length=state.tail_valid_length,
            policy=policy, sync=sync, capture_deltas=capture_deltas)
    return BootResult(router=router, store=store, report=report,
                      checkpoint=state.checkpoint)
