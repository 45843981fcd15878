"""The replication chaos harness: kill, corrupt, partition, converge.

Drives one writer (:class:`~repro.replicate.coordinator.
ReplicationCoordinator` over a ``SnapshotRouter``) plus N replica
processes through five phases while a synthesized update trace churns
the route set:

A. **Steady streaming** — all replicas follow the live record stream;
   ``stream_seconds`` times it from the last churn update until every
   replica reports the writer's seq and checksum.
B. **Kill / catch-up** — SIGKILL a replica, apply K updates, respawn;
   it replays its local log and resumes at its old seq, so the writer
   ships only the missed suffix.  Measured at K and 4K: catch-up bytes
   must scale with K (ratio ≤ 8) and stay far below a full checkpoint.
C. **Word corruption** — random engine bit flips (``repro.faults``),
   repaired locally by the shadow-verified scrubber; no traffic at all.
D. **Silent divergence** — a dropped route plus a phantom route, both
   invisible to the scrubber.  Anti-entropy STATUS checksums flag the
   replica; IBLT reconciliation ships only the two differing records.
E. **Partition / heal** — a replica stops touching its socket while the
   writer churns; the kernel buffers the stream, the heal drains it in
   order, no reconciliation needed.

Afterwards the writer and every replica must answer a probe set — half
uniform keys, half keys under the prefixes the trace changed — exactly
like the :class:`~repro.verify.Oracle` trie (zero divergent lookups),
and every replica must rebuild to a byte-identical canonical
:class:`~repro.core.image.HardwareImage` (``diff().word_count == 0``).
All waits are deadline-bounded; a hang becomes a named gate failure,
not a stuck process.

Control (probe/corrupt/partition/stop) rides one duplex pipe per
replica, so the socket byte counters measure replication traffic and
nothing else; EOF on a replica's pipe means the replica died.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.util import register_after_fork
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import ChiselConfig
from ..core.image import HardwareImage
from ..prefix.table import RoutingTable
from ..router.nexthop import NextHopInfo
from ..serve.snapshot import SnapshotRouter
from ..verify import HarnessReport, Oracle, apply_update, keys_under
from ..workloads.traces import synthesize_trace
from .coordinator import ReplicationCoordinator
from .replica import (
    CMD_CORRUPT_DROP,
    CMD_CORRUPT_PHANTOM,
    CMD_CORRUPT_WORDS,
    CMD_PARTITION,
    CMD_PROBE,
    CMD_SCRUB,
    CMD_STATUS,
    CMD_STOP,
    CMD_VERIFY,
    replica_main,
)
from .state import bootstrap, canonical_image

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: Per-wait ceiling — generous for CI's single vCPU, small enough that a
#: wedged phase fails the run instead of hanging it.
_WAIT_SECONDS = 30.0


class HarnessError(RuntimeError):
    """A replica died or a control command timed out."""


@dataclass
class ReplicateReport(HarnessReport):
    """Everything the replication gates measure, JSON-ready."""

    replicas: int = 0
    table_size: int = 0
    width: int = 0
    updates_applied: int = 0
    writer_seq: int = 0
    checkpoint_bytes: int = 0
    stream_seconds: float = 0.0
    catchup_k1: int = 0
    catchup_bytes_k1: int = 0
    catchup_seconds_k1: float = 0.0
    catchup_k2: int = 0
    catchup_bytes_k2: int = 0
    catchup_seconds_k2: float = 0.0
    catchup_ratio: float = 0.0
    traffic_advantage: float = 0.0
    recon_sessions: int = 0
    recon_bytes: int = 0
    resyncs: int = 0
    scrub_detected: int = 0
    scrub_repaired: int = 0
    partition_heal_seconds: float = 0.0
    probe_keys: int = 0
    divergent_answers: int = -1
    image_diff_words: int = -1
    converged_ok: float = 0.0
    elapsed_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0


class ReplicaHandle:
    """Parent-side handle for one replica process (spawn/kill/command)."""

    def __init__(self, replica_id: int, port: int, table: RoutingTable,
                 config: ChiselConfig, directory: str,
                 status_interval: float, scrub_interval: float) -> None:
        self.replica_id = replica_id
        self.port = port
        self.table = table
        self.config = config
        self.directory = directory
        self.status_interval = status_interval
        self.scrub_interval = scrub_interval
        self.process: Optional[Any] = None
        #: The harness's end of the replica's control pipe.
        self.pipe: Optional[Connection] = None

    def spawn(self) -> None:
        self.pipe, child_end = _CTX.Pipe()
        # Forked children close their copies of our end, and we close ours
        # of the replica's: EOF on either end means the other side died.
        register_after_fork(self.pipe, Connection.close)
        self.process = _CTX.Process(
            target=replica_main,
            args=(self.replica_id, self.port, self.table, self.config,
                  self.directory, child_end, self.status_interval,
                  self.scrub_interval),
            daemon=True,
            name=f"replica-{self.replica_id}",
        )
        self.process.start()
        child_end.close()

    def command(self, kind: str, *parts: Any,
                timeout: float = _WAIT_SECONDS) -> Tuple:
        """Send one control command; return its matching response."""
        if self.pipe is None:
            raise HarnessError(f"replica {self.replica_id} is not running")
        deadline = time.monotonic() + timeout
        try:
            self.pipe.send((kind,) + parts)
            while self.pipe.poll(max(0.0, deadline - time.monotonic())):
                item = self.pipe.recv()
                if item[0] == "error":
                    raise HarnessError(
                        f"replica {self.replica_id} failed: {item[2]}")
                if item[0] == kind:
                    return item
        except (EOFError, OSError):
            raise HarnessError(
                f"replica {self.replica_id} died during {kind}") from None
        raise HarnessError(f"replica {self.replica_id}: {kind} timed out")

    def status(self) -> Dict[str, Any]:
        return self.command(CMD_STATUS)[2]

    def kill(self) -> None:
        """SIGKILL — the crash the local log must survive."""
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=5.0)
        if self.pipe is not None:
            self.pipe.close()
            self.pipe = None

    def stop(self) -> None:
        """Ask the replica to stop; kill it if it has not within 3 s."""
        if self.process is not None and self.process.is_alive():
            try:
                self.command(CMD_STOP, timeout=3.0)
            except HarnessError:
                pass
            self.process.join(timeout=3.0)
        self.kill()


def _wait_until(predicate, label: str, failures: List[str],
                timeout: float = _WAIT_SECONDS,
                poll: float = 0.03) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    failures.append(f"timeout: {label} (>{timeout:.0f}s)")
    return False


def run_replicate(table: RoutingTable, config: ChiselConfig,
                  replicas: int = 2, churn: int = 400,
                  catchup_k: int = 25, probes: int = 256,
                  seed: int = 0, status_interval: float = 0.08,
                  scrub_interval: float = 10.0,
                  workdir: Optional[str] = None) -> ReplicateReport:
    """Run the full kill/corrupt/partition matrix; return the report.

    ``catchup_k`` is K for phase B; the second measurement uses 4K.
    ``scrub_interval`` is deliberately long — phase C triggers scrubs
    explicitly so the repair counts are attributable.
    """
    report = ReplicateReport(replicas=replicas, table_size=len(table),
                             width=table.width, catchup_k1=catchup_k,
                             catchup_k2=4 * catchup_k)
    started = time.monotonic()
    rng = random.Random(seed)
    trace = synthesize_trace(table, churn + 10 * catchup_k, seed=seed)
    position = 0

    oracle = Oracle(table)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    coordinator = ReplicationCoordinator(router, ledger, config)
    port = coordinator.listen()

    own_workdir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="chisel-replicate-")
    handles = [
        ReplicaHandle(replica_id, port, table, config,
                      os.path.join(workdir, f"replica{replica_id}"),
                      status_interval, scrub_interval)
        for replica_id in range(replicas)
    ]

    def apply_ops(count: int) -> int:
        nonlocal position
        applied = 0
        for op in trace[position:position + count]:
            apply_update(router, op)
            oracle.apply(op)
            applied += 1
        position += applied
        report.updates_applied += applied
        return applied

    def replica_caught_up(handle: ReplicaHandle) -> bool:
        state = handle.status()
        return (state["seq"] == coordinator.seq
                and state["checksum"] == coordinator.ledger.checksum)

    def session_bytes(replica_id: int) -> int:
        session = coordinator.status()["sessions"].get(replica_id)
        if session is None:
            return 0
        return session["bytes_sent"] + session["bytes_received"]

    try:
        # Spawn before starting threads: fork safety (the coordinator
        # has only a bound listener at this point, no locks held).
        for handle in handles:
            handle.spawn()
        coordinator.start()
        report.checkpoint_bytes = coordinator.checkpoint_bytes()

        # -- Phase A: steady streaming ----------------------------------
        _wait_until(lambda: all(h.status()["connected"] for h in handles),
                    "replicas connect", report.failures)
        apply_ops(churn)
        churned = time.monotonic()
        streamed = [
            _wait_until(lambda h=handle: replica_caught_up(h),
                        f"replica {handle.replica_id} streams the churn",
                        report.failures, poll=0.005)
            for handle in handles
        ]
        if all(streamed):
            report.stream_seconds = round(time.monotonic() - churned, 3)

        # -- Phase B: kill, miss K updates, respawn, catch up ------------
        victim = handles[0]
        for attempt, missed in enumerate((catchup_k, 4 * catchup_k)):
            victim.kill()
            apply_ops(missed)
            respawn_started = time.monotonic()
            victim.spawn()
            converged = _wait_until(
                lambda: replica_caught_up(victim),
                f"catch-up after missing {missed} updates",
                report.failures)
            seconds = time.monotonic() - respawn_started
            bytes_used = session_bytes(victim.replica_id)
            if attempt == 0:
                report.catchup_bytes_k1 = bytes_used
                report.catchup_seconds_k1 = round(seconds, 3)
            else:
                report.catchup_bytes_k2 = bytes_used
                report.catchup_seconds_k2 = round(seconds, 3)
            if not converged:
                break
        if report.catchup_bytes_k1:
            report.catchup_ratio = round(
                report.catchup_bytes_k2 / report.catchup_bytes_k1, 2)
            report.traffic_advantage = round(
                report.checkpoint_bytes / report.catchup_bytes_k1, 2)
        if report.catchup_ratio > 8.0:
            report.failures.append(
                f"catch-up bytes not proportional to K: 4K/K ratio "
                f"{report.catchup_ratio} > 8.0")
        if report.catchup_bytes_k2 >= report.checkpoint_bytes / 2:
            report.failures.append(
                f"catch-up at 4K ({report.catchup_bytes_k2} B) not o("
                f"checkpoint) ({report.checkpoint_bytes} B)")

        # -- Phase C: word corruption, repaired by the local scrubber ----
        patient = handles[min(1, replicas - 1)]
        patient.command(CMD_CORRUPT_WORDS, 3, seed + 1)
        scrub = patient.command(CMD_SCRUB)[2]
        report.scrub_detected = scrub["detected"]
        report.scrub_repaired = scrub["repaired"]
        if scrub["detected"] == 0:
            report.failures.append("scrub detected none of the bit flips")
        if scrub["uncorrectable"]:
            report.failures.append(
                f"scrub left {scrub['uncorrectable']} uncorrectable words")

        # -- Phase D: silent route divergence, healed by IBLT recon ------
        baseline = session_bytes(patient.replica_id)
        recon_before = coordinator.recon_sessions
        resyncs_before = coordinator.resyncs
        patient.command(CMD_CORRUPT_DROP, seed + 2)
        patient.command(CMD_CORRUPT_PHANTOM, seed + 3)
        _wait_until(
            lambda: (coordinator.recon_sessions > recon_before
                     and replica_caught_up(patient)),
            "IBLT reconciliation heals the diverged replica",
            report.failures)
        report.recon_sessions = coordinator.recon_sessions - recon_before
        report.recon_bytes = session_bytes(patient.replica_id) - baseline
        report.resyncs = coordinator.resyncs - resyncs_before
        if report.resyncs:
            report.failures.append(
                f"divergence fell back to {report.resyncs} full resyncs "
                "instead of IBLT fix-ups")
        if report.recon_bytes >= report.checkpoint_bytes / 2:
            report.failures.append(
                f"reconciliation traffic ({report.recon_bytes} B) not "
                f"o(checkpoint) ({report.checkpoint_bytes} B)")

        # -- Phase E: partition under churn, heal, drain in order --------
        partition_seconds = max(4 * status_interval, 0.3)
        victim.command(CMD_PARTITION, partition_seconds)
        apply_ops(2 * catchup_k)
        heal_started = time.monotonic()
        resyncs_before = coordinator.resyncs
        _wait_until(lambda: replica_caught_up(victim),
                    "partitioned replica heals and drains the stream",
                    report.failures)
        report.partition_heal_seconds = round(
            time.monotonic() - heal_started, 3)
        if coordinator.resyncs > resyncs_before:
            report.failures.append(
                "partition heal needed a resync (stream should drain)")

        # -- Final: zero divergence, byte-identical canonical images -----
        for handle in handles:
            _wait_until(lambda h=handle: replica_caught_up(h),
                        f"replica {handle.replica_id} final convergence",
                        report.failures)
        keys = keys_under(rng, table.width, probes, oracle.changed)
        report.probe_keys = len(keys)
        divergent = len(oracle.mismatches(
            keys, [router.fib.forward(key) for key in keys]))
        for handle in handles:
            answers = handle.command(CMD_PROBE, keys)[2]
            divergent += len(oracle.mismatches(keys, [
                None if answer is None else NextHopInfo(*answer)
                for answer in answers
            ]))
        report.divergent_answers = divergent
        if divergent:
            report.failures.append(
                f"{divergent} divergent lookup answers after convergence")

        writer_image = canonical_image(coordinator.ledger, config)
        diff_words = 0
        for handle in handles:
            reply = handle.command(CMD_VERIFY)
            replica_image = HardwareImage(reply[2])
            diff_words += writer_image.diff(replica_image).word_count
        report.image_diff_words = diff_words
        if diff_words:
            report.failures.append(
                f"canonical images differ by {diff_words} words")
        report.converged_ok = 1.0 if (divergent == 0
                                      and diff_words == 0) else 0.0
    except HarnessError as error:
        report.failures.append(str(error))
    finally:
        for handle in handles:
            handle.stop()
        coordinator.stop()
        traffic = coordinator.traffic()
        report.bytes_sent = traffic["bytes_sent"]
        report.bytes_received = traffic["bytes_received"]
        report.writer_seq = coordinator.seq
        report.elapsed_seconds = round(time.monotonic() - started, 3)
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return report
