"""Cold start: map the newest valid checkpoint, replay the tail.

Recovery walks checkpoint generations newest-first.  For each candidate
it digest-verifies the image, mapped copy-on-write, unpickles the FIB
blob and chains the delta logs from that generation forward, replaying
their valid prefixes.  Replay patches the mapped image's private pages
— never the file, and never a whole-plan copy.  Any damage — bad magic, checksum mismatch, mid-log CRC
failure, sequence gap — is *detected and classified*, never served:

* a damaged newest checkpoint — or one whose FIB blob does not
  unpickle — falls back to the previous generation (whose logs still
  chain to the present, so no durable record is lost);
* a torn final log record is truncated away (it was never acknowledged);
* damage in the middle of a durable log stops replay at the last clean
  record — the store serves a correct prefix of history and reports the
  loss rather than guessing at records beyond the damage;
* when every checkpoint is damaged, bounded retries with exponential
  backoff run first (transient I/O), then the boot degrades to a full
  recompile from ``bootstrap`` (the pre-store cold-start cost) or raises.

Replay drives the recovered update commands through the same
``SnapshotRouter.announce``/``withdraw`` path the writer used, so the
recovered engine is byte-identical to a golden rebuild of the same
update prefix (the ``chisel-repro crash`` harness gates on exactly
this, at every kill point and on both boot paths).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Tuple

from ..core.chisel import paused_collector
from ..core.config import ChiselConfig
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
from .records import ANNOUNCE, LogRecord
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
    fallbacks: int = 0
    attempts: int = 1
    torn_tail: bool = False
    chain_broken: bool = False
    duplicates_skipped: int = 0
    rejected: List[str] = field(default_factory=list)
    damage: List[str] = field(default_factory=list)
    replay_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {**asdict(self),
                "replay_seconds": round(self.replay_seconds, 6)}


@dataclass
class BootResult:
    """A served-and-journaled router recovered from disk."""

    router: SnapshotRouter
    store: SnapshotStore
    report: RecoveryReport
    checkpoint: Optional[MappedCheckpoint] = None


def _chain_logs(directory: str, start_generation: int,
                report: RecoveryReport) -> Tuple[List[LogRecord], int]:
    """Replay logs ``start_generation..newest`` past ``report.seq``.

    Returns the tail records and the newest log's valid length, and
    fills the report's seq, tail and damage fields.
    """
    generations = list_generations(directory)
    newest = generations[-1] if generations else start_generation
    records: List[LogRecord] = []
    valid_length = 0
    for generation in range(start_generation, newest + 1):
        replay = replay_log(log_path(directory, generation),
                            start_seq=report.seq,
                            expected_generation=generation)
        report.duplicates_skipped += replay.duplicates_skipped
        if replay.status == "missing":
            # A crash between checkpoint rename and log rotation: no
            # record can exist beyond this point.
            if generation < newest:
                report.chain_broken = True
                report.damage.append(
                    f"delta-{generation:08d}.log missing mid-chain")
            break
        records.extend(replay.records)
        if replay.records:
            report.seq = replay.records[-1].seq
        if generation == newest:
            valid_length = replay.valid_length
        if replay.status == "torn":
            report.torn_tail = True
            if generation < newest:
                # Records were lost *between* logs; later logs cannot
                # chain (their records would gap).  Serve the clean
                # prefix and say so.
                report.chain_broken = True
                report.damage.append(
                    f"delta-{generation:08d}.log torn mid-chain: "
                    f"{replay.detail}")
            else:
                report.damage.append(
                    f"delta-{generation:08d}.log torn tail: "
                    f"{replay.detail}")
            break
        if replay.damaged:
            report.chain_broken = True
            report.damage.append(
                f"delta-{generation:08d}.log {replay.status}: "
                f"{replay.detail}")
            break
    return records, valid_length


def _recover_state(
        directory: str, report: RecoveryReport,
) -> Tuple[MappedCheckpoint, SharedBatchLookup, ForwardingEngine,
           List[LogRecord], int]:
    """Newest recoverable checkpoint and its log tail, or ``RecoveryError``.

    Fills ``report`` with what recovery found, used and refused; returns
    ``(checkpoint, lookup, FIB, tail, newest log valid length)``.
    """
    registry = get_registry()
    generations = list_generations(directory)
    if not generations:
        raise RecoveryError(
            f"{directory}: no checkpoints found (not a store?)")
    refused = registry.counter(
        "store_checkpoints_rejected_total",
        "checkpoints refused by recovery (bad header/checksum)",
    )
    for generation in reversed(generations):
        path = checkpoint_path(directory, generation)
        try:
            checkpoint = load_checkpoint(path)
        except CheckpointCorruptError as error:
            report.rejected.append(str(error))
            refused.inc()
            report.fallbacks += 1
            continue
        try:
            fib_blob = checkpoint.blob("fib")
        except KeyError:
            checkpoint.close()
            report.rejected.append(f"checkpoint {path}: missing FIB blob")
            report.fallbacks += 1
            continue
        try:
            # The unpickle frees nothing, so collections it triggered
            # would only walk the heap it builds.
            with paused_collector():
                fib = pickle.loads(fib_blob)
        except Exception as error:
            # The blob is checksummed, so this is version skew or bucket
            # columns that disagree, not rot: refused like a corrupt
            # checkpoint, so an older generation can still serve.
            checkpoint.close()
            report.rejected.append(
                f"checkpoint generation {generation}: FIB blob failed "
                f"to unpickle: {error}")
            refused.inc()
            report.fallbacks += 1
            continue
        try:
            lookup = checkpoint.to_lookup()
        except SnapshotIntegrityError as error:
            # Checksums held but the datapath cannot be rebuilt (a
            # layout this reader does not serve): same fallback as a
            # corrupt checkpoint.
            checkpoint.close()
            report.rejected.append(str(error))
            refused.inc()
            report.fallbacks += 1
            continue
        report.generation = generation
        report.checkpoint_seq = report.seq = checkpoint.seq
        tail, valid_length = _chain_logs(directory, generation, report)
        if report.torn_tail:
            registry.counter(
                "store_torn_tails_total",
                "torn final log records truncated by recovery").inc()
        if report.chain_broken:
            registry.counter(
                "store_corrupt_logs_total",
                "log damage beyond a torn tail found by recovery").inc()
        return checkpoint, lookup, fib, tail, valid_length
    raise RecoveryError(
        f"{directory}: every checkpoint failed validation: "
        + "; ".join(report.rejected)
    )


def cold_start(directory: str,
               policy: Optional[CheckpointPolicy] = None,
               sync: bool = True,
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
    attempts = max(retries, 1)
    recovered = None
    last_error: Optional[Exception] = None
    started = time.perf_counter()
    for attempt in range(attempts):
        report = RecoveryReport(attempts=attempt + 1)
        try:
            recovered = _recover_state(directory, report)
            break
        except RecoveryError as error:
            last_error = error
            if attempt + 1 < attempts:
                sleep(backoff * (2 ** attempt))
    if recovered is None:
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
        report = RecoveryReport(boot="recompile", attempts=attempts,
                                rejected=[str(last_error)])
        sweep_tmp_files(directory)
        store = SnapshotStore.create(directory, router, policy=policy,
                                     sync=sync)
        report.generation = store.generation
        report.replay_seconds = time.perf_counter() - started
        return BootResult(router=router, store=store, report=report)
    checkpoint, lookup, fib, tail, valid_length = recovered
    router = SnapshotRouter(fib, initial_snapshot=lookup,
                            seq=report.checkpoint_seq)
    # Re-apply the tail through the live update path; the router numbers
    # each replayed update, so it ends at ``report.seq``.
    for record in tail:
        prefix = Prefix(record.prefix_value, record.prefix_length, fib.width)
        if record.op == ANNOUNCE:
            router.announce(prefix, record.gateway, record.interface)
        else:
            router.withdraw(prefix)
    report.updates_replayed = len(tail)
    report.replay_seconds = time.perf_counter() - started
    replay_hist.observe(report.replay_seconds)
    registry.counter(
        "store_recoveries_total", "successful cold-start recoveries").inc()
    if report.fallbacks:
        registry.counter(
            "store_recovery_fallbacks_total",
            "recoveries that used an older checkpoint generation").inc()
    sweep_tmp_files(directory)
    if checkpoint_on_boot or report.chain_broken:
        # A fresh generation makes recovery itself crash-consistent
        # (no in-place log surgery survives a crash-during-boot) and
        # bounds boot time across repeated crash cycles.  It is cut at
        # the router's recovered seq, which keeps the cross-generation
        # sequence lineage intact: a later fallback past this checkpoint
        # must see the post-boot records as successors, not stale
        # duplicates.
        store = SnapshotStore.create(directory, router, policy=policy,
                                     sync=sync)
    else:
        store = SnapshotStore.resume(
            directory, router, generation=report.generation,
            log_valid_length=valid_length, policy=policy, sync=sync)
    return BootResult(router=router, store=store, report=report,
                      checkpoint=checkpoint)
