"""Kill-anywhere crash harness behind ``chisel-repro crash``.

Two campaigns, one inviolable gate — a recovered router must never serve
a silently-wrong lookup:

**Kill matrix.**  A deterministic writer workload (synthetic table,
synthesized update trace, periodic checkpoints) runs in a forked child
with a crashpoint hook that calls ``os._exit`` at the Nth durability
boundary — every ``log:*`` and ``ckpt:*`` point the store exposes, so
the writer dies mid-append, mid-fsync, between tmp write and rename,
after rename before directory fsync, mid-rotation and mid-prune.  The
parent then cold-starts from whatever the child left on disk, twice:
the default way (cutting a fresh checkpoint), and on a copy taken before
that boot with ``checkpoint_on_boot=False`` (appending to the recovered
log).  Each boot is gated:

* recovery reaches at least the sequence number that was durable when
  the child died (acknowledged updates are never lost), and the report,
  the router and the store agree on it;
* probe lookups at the recovered sequence number match the
  :class:`repro.verify.Oracle` trie replayed to the same point; half
  the probes lie under prefixes the trace changes;
* catching the recovered router up with the remaining trace yields a
  hardware image byte-identical (bidirectional ``HardwareImage.diff``)
  to a golden router rebuilt to the end state — replay converges, it
  does not drift — with the router and the store both at the trace's
  length.

A boot that *refuses* (``RecoveryError``) is only acceptable while no
checkpoint had ever been renamed into place — before that there is
nothing durable to recover, which is the documented bootstrap case.

**Corruption matrix.**  A completed writer directory is copied per case
and damaged with :mod:`repro.faults.fileinject` — torn final record,
duplicated final record, truncated newest checkpoint, bit-flipped
checkpoint payload, bit flip mid-log, every checkpoint corrupted — and
the same gates apply, plus per-case shape checks (a duplicate must be
skipped, checkpoint damage must fall back, total damage must be
*detected*, never served).

Everything is seeded; two runs of the harness make identical kills and
identical verdicts.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.image import HardwareImage
from ..core.updates import UpdateOp
from ..prefix.table import RoutingTable
from ..router.fib import ForwardingEngine
from ..serve.snapshot import SnapshotRouter
from ..verify import Answer, HarnessReport, Oracle, apply_update, keys_under
from ..workloads import synthetic_table
from ..workloads.traces import synthesize_trace
from .boot import BootResult, RecoveryError, cold_start
from .checkpoint import CHECKPOINT_MAGIC
from .crashpoints import set_crashpoint_hook
from .store import (
    CheckpointPolicy,
    SnapshotStore,
    checkpoint_path,
    list_generations,
    log_path,
)

#: Child exit code for an intentional kill (distinguishes "harness shot
#: the writer" from organic crashes).
KILL_EXIT = 137


@dataclass
class CrashReport(HarnessReport):
    """Outcome of one crash campaign, with acceptance gates attached."""

    kill_points: int = 0
    kills_delivered: int = 0
    boots: int = 0
    boots_refused: int = 0
    refusals_legitimate: int = 0
    seq_regressions: int = 0
    wrong_answers: int = 0
    lookups_checked: int = 0
    divergent_replays: int = 0
    fallbacks: int = 0
    torn_tails: int = 0
    duplicates_skipped: int = 0
    corruption_cases: int = 0
    corruption_passed: int = 0
    case_results: Dict[str, str] = field(default_factory=dict)

    def evaluate(self) -> None:
        """Apply the acceptance gates; failures join ``self.failures``."""
        if self.kills_delivered < self.kill_points:
            self.failures.append(
                f"only {self.kills_delivered} of {self.kill_points} kills "
                f"were delivered at a crashpoint"
            )
        if self.wrong_answers:
            self.failures.append(
                f"{self.wrong_answers} silently-wrong lookups (of "
                f"{self.lookups_checked}) after recovery — the one "
                f"inviolable contract"
            )
        if self.seq_regressions:
            self.failures.append(
                f"{self.seq_regressions} boots recovered fewer updates "
                f"than were durable at the kill"
            )
        if self.divergent_replays:
            self.failures.append(
                f"{self.divergent_replays} recovered routers diverged "
                f"from the golden image after catch-up"
            )
        if self.boots_refused > self.refusals_legitimate:
            self.failures.append(
                f"{self.boots_refused - self.refusals_legitimate} boots "
                f"refused with durable state on disk"
            )
        if self.corruption_passed < self.corruption_cases:
            failed = sorted(
                name for name, verdict in self.case_results.items()
                if verdict != "ok"
            )
            self.failures.append(
                f"corruption cases failed: {', '.join(failed)}"
            )


@dataclass
class _Workload:
    """The deterministic writer workload both child and golden replay."""

    table_size: int
    updates: int
    seed: int
    every_records: int
    probes: int = 64

    def table(self) -> RoutingTable:
        return synthetic_table(self.table_size, seed=self.seed)

    def trace(self) -> List[UpdateOp]:
        return synthesize_trace(self.table(), self.updates,
                                seed=self.seed + 1)

    def probe_keys(self) -> List[int]:
        """Probes half uniform, half under the prefixes the trace changes."""
        return keys_under(random.Random(self.seed + 2), 32, self.probes,
                          [op.prefix for op in self.trace()])


def writer_workload(
        directory: str, workload: _Workload,
        opened: Callable[[SnapshotStore], None] = lambda store: None,
) -> None:
    """The writer: create a store and push the whole trace through it.

    Module-level and hook-free so the kill logic stays in the caller;
    with a crashpoint hook installed this never returns past the kill.
    ``opened`` sees the store before the first update.
    """
    router = SnapshotRouter(ForwardingEngine.from_table(workload.table()))
    store = SnapshotStore.create(
        directory, router,
        policy=CheckpointPolicy(every_records=workload.every_records,
                                retain=2),
        sync=True,
    )
    opened(store)
    for op in workload.trace():
        apply_update(router, op)
        store.maybe_checkpoint()
    store.close()


def enumerate_crashpoints(
        workload: _Workload) -> Tuple[List[Tuple[str, int, bool]], str]:
    """Dry-run the writer, recording every crashpoint it passes.

    Returns ``(points, directory)`` where each point is
    ``(tag, durable, checkpoint_durable)`` — the conservative
    durable sequence number and whether any checkpoint had been renamed
    into place when that point fired — plus the completed store
    directory (reused as the pristine source for the corruption matrix).
    """
    directory = tempfile.mkdtemp(prefix="chz-crash-golden-")
    points: List[Tuple[str, int, bool]] = []
    stores: List[SnapshotStore] = []
    renamed = [False]

    def recorder(tag: str) -> None:
        durable = stores[0].seq if stores else 0
        points.append((tag, durable, renamed[0]))
        if tag == "ckpt:renamed":
            renamed[0] = True

    set_crashpoint_hook(recorder)
    try:
        writer_workload(directory, workload, opened=stores.append)
    finally:
        set_crashpoint_hook(None)
    return points, directory


def _run_killed_writer(directory: str, workload: _Workload,
                       kill_index: int) -> int:
    """Fork a writer that dies at crashpoint ``kill_index``; exit code."""
    import multiprocessing

    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    process = context.Process(
        target=_killed_writer_main,
        args=(directory, workload, kill_index),
        name=f"chisel-crash-writer-{kill_index}",
    )
    process.start()
    process.join(timeout=120.0)
    if process.is_alive():  # pragma: no cover - hang safety net
        process.terminate()
        process.join(timeout=5.0)
        return -1
    return process.exitcode if process.exitcode is not None else -1


def _killed_writer_main(directory: str, workload: _Workload,
                        kill_index: int) -> None:
    """Child entry point: install the kill hook, run the writer."""
    counter = {"index": 0}

    def killer(tag: str) -> None:
        index = counter["index"]
        counter["index"] = index + 1
        if index == kill_index:
            # _exit skips every finally/atexit/flush: buffered bytes die
            # with the process, OS-visible bytes survive — the same
            # visibility cut a SIGKILL produces.
            os._exit(KILL_EXIT)

    set_crashpoint_hook(killer)
    writer_workload(directory, workload)


def _golden_states(workload: _Workload) -> Tuple[List[List[Answer]],
                                                 HardwareImage]:
    """Oracle probe answers at every sequence number, and the final image.

    The answers come from the trie; the golden router is rebuilt only
    for the byte-level image the caught-up recoveries must match.
    """
    keys = workload.probe_keys()
    oracle = Oracle(workload.table())
    router = SnapshotRouter(ForwardingEngine.from_table(workload.table()))
    answers = [[oracle.lookup(key) for key in keys]]
    for op in workload.trace():
        oracle.apply(op)
        apply_update(router, op)
        answers.append([oracle.lookup(key) for key in keys])
    return answers, HardwareImage.snapshot(router.fib.engine)


def _verify_recovery(directory: str, workload: _Workload,
                     golden_answers: List[List[Answer]],
                     golden_final: HardwareImage,
                     min_seq: int, report: CrashReport,
                     context: str) -> Optional[str]:
    """Boot ``directory`` both ways and gate each boot; None means passed.

    A copy taken before the first boot is booted with
    ``checkpoint_on_boot=False``, the path that resumes appending to the
    recovered log; ``directory`` itself boots the default way, cutting a
    fresh checkpoint.
    """
    resumed = tempfile.mkdtemp(prefix="chz-crash-resume-")
    try:
        shutil.rmtree(resumed)
        shutil.copytree(directory, resumed)
        for path, checkpoint_on_boot, label in (
                (directory, True, context),
                (resumed, False, f"{context}, resumed")):
            try:
                result = cold_start(path, sync=True, retries=1, backoff=0.0,
                                    checkpoint_on_boot=checkpoint_on_boot)
            except RecoveryError as error:
                return f"{label}: recovery refused: {error}"
            except OSError as error:
                return f"{label}: boot failed: {error!r}"
            failure = _gate_boot(result, workload, golden_answers,
                                 golden_final, min_seq, report, label)
            if failure is not None:
                return failure
    finally:
        shutil.rmtree(resumed, ignore_errors=True)
    return None


def _gate_boot(result: BootResult, workload: _Workload,
               golden_answers: List[List[Answer]],
               golden_final: HardwareImage, min_seq: int,
               report: CrashReport, context: str) -> Optional[str]:
    """Apply every gate to one boot, then close it; None means passed."""
    report.boots += 1
    boot_report = result.report
    report.fallbacks += boot_report.fallbacks
    report.torn_tails += int(boot_report.torn_tail)
    report.duplicates_skipped += boot_report.duplicates_skipped
    try:
        seq = boot_report.seq
        seqs = (seq, result.router.seq, result.store.seq)
        if len(set(seqs)) > 1:
            return f"{context}: report, router and store seqs {seqs}"
        if seq < min_seq:
            report.seq_regressions += 1
            return (f"{context}: recovered seq {seq} below durable "
                    f"seq {min_seq}")
        if seq >= len(golden_answers):
            return (f"{context}: recovered seq {seq} beyond the "
                    f"{len(golden_answers) - 1}-update trace")
        keys = workload.probe_keys()
        served = result.router.forward_batch(keys)
        report.lookups_checked += len(keys)
        wrong = sum(
            1 for got, want in zip(served, golden_answers[seq])
            if got != want
        )
        if wrong:
            report.wrong_answers += wrong
            return (f"{context}: {wrong}/{len(keys)} probe lookups "
                    f"diverge from the oracle at seq {seq}")
        # Catch-up: the remaining trace must drive the recovered FIB to
        # the exact golden end state — replay converges, never drifts.
        trace = workload.trace()
        for op in trace[seq:]:
            apply_update(result.router, op)
        seqs = (result.router.seq, result.store.seq, len(trace))
        if len(set(seqs)) > 1:
            return (f"{context}: caught-up router seq, store seq and "
                    f"trace length {seqs}")
        recovered = HardwareImage.snapshot(result.router.fib.engine)
        forward = golden_final.diff(recovered)
        backward = recovered.diff(golden_final)
        if (forward.writes or forward.deletions
                or backward.writes or backward.deletions):
            report.divergent_replays += 1
            words = len(forward.writes) + len(backward.writes)
            dels = len(forward.deletions) + len(backward.deletions)
            return (f"{context}: caught-up image differs from golden "
                    f"({words} words, {dels} deletions)")
    finally:
        result.store.close()
        if result.checkpoint is not None:
            result.checkpoint.close()
    return None


def run_kill_matrix(workload: _Workload, report: CrashReport,
                    keep_dirs: bool = False) -> None:
    """Kill the writer at every crashpoint and gate every recovery."""
    points, golden_dir = enumerate_crashpoints(workload)
    shutil.rmtree(golden_dir, ignore_errors=True)
    golden_answers, golden_final = _golden_states(workload)
    report.kill_points = len(points)
    for kill_index, (tag, durable, renamed) in enumerate(points):
        directory = tempfile.mkdtemp(prefix="chz-crash-kill-")
        try:
            exitcode = _run_killed_writer(directory, workload, kill_index)
            if exitcode != KILL_EXIT:
                report.failures.append(
                    f"kill {kill_index} ({tag}): writer exited "
                    f"{exitcode}, expected {KILL_EXIT}"
                )
                continue
            report.kills_delivered += 1
            failure = _verify_recovery(
                directory, workload, golden_answers, golden_final,
                durable, report, context=f"kill {kill_index} ({tag})",
            )
            if failure is not None:
                if "recovery refused" in failure and not renamed:
                    # No checkpoint had ever been renamed into place:
                    # refusing to boot is the correct, documented outcome
                    # (bootstrap path in production).
                    report.boots_refused += 1
                    report.refusals_legitimate += 1
                else:
                    if "recovery refused" in failure:
                        report.boots_refused += 1
                    report.failures.append(failure)
        finally:
            if not keep_dirs:
                shutil.rmtree(directory, ignore_errors=True)


def run_corruption_matrix(workload: _Workload, report: CrashReport) -> None:
    """Damage a completed store directory in every modeled way."""
    from ..faults.fileinject import (
        duplicate_final_record,
        flip_file_bit,
        torn_final_record,
        truncate_file,
    )

    from .deltalog import scan_frames

    source = tempfile.mkdtemp(prefix="chz-crash-src-")
    try:
        writer_workload(source, workload)
        golden_answers, golden_final = _golden_states(workload)
        generations = list_generations(source)
        newest = generations[-1]
        if not scan_frames(log_path(source, newest)):
            raise ValueError(
                f"corruption matrix needs a non-empty newest log: choose "
                f"updates ({workload.updates}) not divisible by the "
                f"checkpoint period ({workload.every_records}) so the "
                f"trace leaves a replayable tail"
            )

        def newest_ckpt(directory: str) -> str:
            return checkpoint_path(directory, newest)

        def newest_log(directory: str) -> str:
            return log_path(directory, newest)

        def payload_offset(path: str) -> int:
            # Aim past the JSON header into table payload so the damage
            # lands on checksummed bytes, not on the parse path.
            size = os.path.getsize(path)
            return min(8 + len(CHECKPOINT_MAGIC) + 4096, size - 1)

        cases = {
            "torn-final-record": lambda d: torn_final_record(newest_log(d)),
            "duplicate-final-record":
                lambda d: duplicate_final_record(newest_log(d)),
            "truncated-checkpoint":
                lambda d: truncate_file(
                    newest_ckpt(d), os.path.getsize(newest_ckpt(d)) // 2),
            "bitflip-checkpoint":
                lambda d: flip_file_bit(
                    newest_ckpt(d), payload_offset(newest_ckpt(d)), 3),
            "bitflip-midlog":
                lambda d: _flip_midlog(d, newest, flip_file_bit),
            "all-checkpoints-corrupt":
                lambda d: [
                    truncate_file(checkpoint_path(d, generation), 16)
                    for generation in list_generations(d)
                ],
        }
        report.corruption_cases = len(cases)
        for name, damage in cases.items():
            directory = tempfile.mkdtemp(prefix=f"chz-crash-{name}-")
            try:
                shutil.rmtree(directory)
                shutil.copytree(source, directory)
                damage(directory)
                verdict = _corruption_verdict(
                    name, directory, workload, golden_answers, golden_final,
                    report,
                )
                report.case_results[name] = verdict
                if verdict == "ok":
                    report.corruption_passed += 1
            finally:
                shutil.rmtree(directory, ignore_errors=True)
    finally:
        shutil.rmtree(source, ignore_errors=True)


def _flip_midlog(directory: str, newest: int, flip) -> int:
    """Flip a bit in a durable mid-log record (not the final frame)."""
    from .deltalog import scan_frames

    path = log_path(directory, newest)
    frames = scan_frames(path)
    if len(frames) < 2:
        # Not enough frames in the newest log; damage the first frame —
        # still strictly before EOF if another frame follows, otherwise
        # the case degenerates to a torn tail, which replay also handles.
        target = frames[0] if frames else (16, 9)
    else:
        target = frames[len(frames) // 2]
    offset, total = target
    return flip(path, offset + total // 2, 5)


def _corruption_verdict(name: str, directory: str, workload: _Workload,
                        golden_answers: List[List[Answer]],
                        golden_final: HardwareImage,
                        report: CrashReport) -> str:
    if name == "all-checkpoints-corrupt":
        # Every checkpoint is damaged: the only correct outcomes are
        # detect-and-refuse (no bootstrap) — never serving from a
        # corrupt image.
        try:
            result = cold_start(directory, sync=True, retries=1,
                                backoff=0.0)
        except RecoveryError:
            report.boots_refused += 1
            report.refusals_legitimate += 1
            return "ok"
        result.store.close()
        if result.checkpoint is not None:
            result.checkpoint.close()
        return "served despite every checkpoint being corrupt"
    failure = _verify_recovery(
        directory, workload, golden_answers, golden_final,
        min_seq=0, report=report, context=f"corruption {name}",
    )
    if failure is not None:
        return failure
    return "ok"


def run_crash(table_size: int = 600, updates: int = 50,
              every_records: int = 12, seed: int = 7,
              probes: int = 64, kill_matrix: bool = True,
              corruption_matrix: bool = True) -> CrashReport:
    """Run the crash campaign(s) and return the evaluated report."""
    workload = _Workload(
        table_size=table_size, updates=updates, seed=seed,
        every_records=every_records, probes=probes,
    )
    report = CrashReport()
    if kill_matrix:
        run_kill_matrix(workload, report)
    if corruption_matrix:
        run_corruption_matrix(workload, report)
    report.evaluate()
    return report
