"""The replica serving process.

Each replica is one OS process holding its own live
:class:`~repro.router.fib.ForwardingEngine` plus the
:class:`~repro.replicate.state.RouteLedger` mirror of the writer's
route set.  It follows the writer's record stream over one socket,
persists every applied record to a local :class:`~repro.store.deltalog.
DeltaLog` (so a SIGKILL + respawn replays locally and reconnects with
``resume_seq = S`` — catch-up traffic stays proportional to the missed
count, not to history), and defends its state three ways:

* **Local scrub** — periodic ``engine.scrub()`` repairs word-level
  corruption from the §4.4 shadows (``repro.faults`` checksums), the
  same anti-entropy the chaos harness exercises single-node.
* **Anti-entropy digests** — periodic STATUS carries the ledger
  checksum; a not-ok ack (or a stream gap) triggers IBLT
  reconciliation, which repairs route-set divergence the scrubber
  cannot see (a silently dropped or phantom route).
* **Reconnect** — a lost writer connection is retried with the current
  resume point; the handshake decides stream or reconcile.  A resume
  point the writer's journal no longer holds reconciles like any other
  divergence, so catch-up traffic follows what was missed, not the
  table.

Persistence layout under the replica directory::

    state.bin   header (magic, width, base_seq, CRC32) + the ledger as
                ANNOUNCE records — tmp + fsync + rename + dir fsync
    tail.log    DeltaLog, generation == base_seq, records base_seq+1…

After IBLT fix-ups or a resync the route set no longer corresponds to a
contiguous record history, so the replica rewrites ``state.bin`` at the
new base seq and rotates a fresh tail log; a restart rebuilds the
engine *canonically* from the ledger (see ``state.canonical_fib``).  A
damaged ``state.bin`` reads as no state: the replica boots from the
table and the writer streams or reconciles the difference.

The harness drives control (probe / corrupt / partition / verify /
stop) over one duplex pipe per replica — never over the socket — so the
wire byte counters measure pure replication traffic.  EOF on that pipe
means the harness is gone, and the replica exits.
"""

from __future__ import annotations

import os
import random
import socket
import struct
import time
import zlib
from contextlib import suppress
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import ChiselConfig
from ..core.image import HardwareImage
from ..faults.inject import FaultInjector
from ..prefix.prefix import Prefix
from ..prefix.table import RoutingTable
from ..store.checkpoint import write_image
from ..store.deltalog import DeltaLog, replay_log
from ..store.records import (
    ANNOUNCE,
    LogRecord,
    RecordDecodeError,
    decode_record,
    decode_records,
    encode_records,
)
from .iblt import IBLT, cells_for
from .state import RouteEntry, RouteLedger, bootstrap, canonical_fib
from .wire import (
    MODE_DIVERGED,
    MSG_RECON_FIXUPS,
    MSG_RECON_RETRY,
    MSG_RECORD,
    MSG_RESYNC,
    MSG_STATUS_ACK,
    MSG_WELCOME,
    Connection,
    Disconnected,
    Hello,
    ReconDone,
    ReconFixups,
    ReconRetry,
    ReconStart,
    Resync,
    StatusAck,
    Status,
    Welcome,
    WireError,
    encode_bye,
    encode_hello,
    encode_recon_done,
    encode_recon_start,
    encode_status,
)

_ORPHAN_POLL_SECONDS = 2.0
_STATE_FILE = "state.bin"
_LOG_FILE = "tail.log"

#: ``state.bin`` header: magic, table width, base seq, CRC32 of the body.
_STATE_MAGIC = b"chzledg2"
_STATE_HEADER = struct.Struct("<8sIQI")

#: Control commands (harness -> replica, over its pipe).
CMD_PROBE = "probe"
CMD_VERIFY = "verify"
CMD_STATUS = "status"
CMD_CORRUPT_WORDS = "corrupt-words"
CMD_CORRUPT_DROP = "corrupt-drop"
CMD_CORRUPT_PHANTOM = "corrupt-phantom"
CMD_PARTITION = "partition"
CMD_SCRUB = "scrub"
CMD_STOP = "stop"


def encode_state(ledger: RouteLedger, base_seq: int) -> bytes:
    """A replica's persisted ledger: header, then one ANNOUNCE per entry."""
    body = encode_records(ledger.to_records())
    return _STATE_HEADER.pack(_STATE_MAGIC, ledger.width, base_seq,
                              zlib.crc32(body)) + body


def decode_state(data: bytes, width: int) -> Tuple[RouteLedger, int]:
    """Parse :func:`encode_state` output for a ``width``-bit table.

    Returns ``(ledger, base_seq)``.  Any damage — a short or foreign
    header, another width, a CRC mismatch, a malformed record, an entry
    no ``width``-bit table can hold — raises ``RecordDecodeError``.
    """
    if len(data) < _STATE_HEADER.size:
        raise RecordDecodeError(f"state too short ({len(data)} bytes)")
    magic, stored_width, base_seq, crc = _STATE_HEADER.unpack_from(data)
    if magic != _STATE_MAGIC:
        raise RecordDecodeError(f"state has bad magic {magic!r}")
    if stored_width != width:
        raise RecordDecodeError(
            f"state width {stored_width}, table width {width}")
    body = data[_STATE_HEADER.size:]
    if zlib.crc32(body) != crc:
        raise RecordDecodeError("state CRC mismatch")
    records, end = decode_records(body)
    if end != len(body):
        raise RecordDecodeError(f"{len(body) - end} bytes after the ledger")
    for record in records:
        if (record.op != ANNOUNCE or record.prefix_length > width
                or record.prefix_value >> record.prefix_length):
            raise RecordDecodeError(f"impossible ledger entry {record}")
    return RouteLedger.from_records(width, records), base_seq


class _ReplicaRuntime:
    """All mutable replica state (single-threaded by design)."""

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
        self.fib = None
        self.ledger: Optional[RouteLedger] = None
        self.seq = 0
        self.base_seq = 0
        self.log: Optional[DeltaLog] = None
        self.conn: Optional[Connection] = None
        self.reconciling = False
        self.pending: List[Tuple[LogRecord, bytes]] = []
        self.recon_cells = 0
        self.recon_seed = 0
        self.last_writer_seq = 0
        self.partition_until = 0.0
        self.last_status_sent = 0.0
        self.last_scrub = 0.0
        self.stats: Dict[str, int] = {
            "records_applied": 0, "duplicates_skipped": 0,
            "recons": 0, "resyncs": 0, "scrub_repaired": 0,
            "scrub_detected": 0, "reconnects": 0, "replayed": 0,
            "state_rejected": 0,
        }
        self.total_bytes_sent = 0
        self.total_bytes_received = 0

    # -- persistence ---------------------------------------------------------

    def _state_path(self) -> str:
        return os.path.join(self.directory, _STATE_FILE)

    def _log_path(self) -> str:
        return os.path.join(self.directory, _LOG_FILE)

    def boot(self) -> None:
        """Rebuild local state from disk (or the initial table)."""
        os.makedirs(self.directory, exist_ok=True)
        loaded = self._load_state()
        if loaded is None:
            self.fib, self.ledger = bootstrap(self.table, self.config)
            self.base_seq = 0
        else:
            self.ledger, self.base_seq = loaded
            self.fib = canonical_fib(self.ledger, self.config)
        self.seq = self.base_seq
        replay = replay_log(self._log_path(), start_seq=self.base_seq,
                            expected_generation=self.base_seq)
        if not replay.damaged:
            for record in replay.records:
                self._apply(record)
                self.seq = record.seq
                self.stats["replayed"] += 1
            # A missing log, or one torn inside its header, is created
            # afresh by ``open_append``.
            self.log = DeltaLog.open_append(
                self._log_path(), self.base_seq, replay.valid_length,
                sync=False)
        else:
            # Damaged beyond the tail: the durable prefix cannot be
            # trusted to chain.  Restart from the last good base state;
            # the writer streams (or reconciles) the difference.
            self._persist(rotate_log=True)

    def _load_state(self) -> Optional[Tuple[RouteLedger, int]]:
        """The persisted ledger and base seq; None if absent or damaged.

        Damage is counted (``state_rejected``) and treated as no state:
        the replica boots from the table and catches up from the writer.
        """
        try:
            with open(self._state_path(), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            self.stats["state_rejected"] += 1
            return None
        try:
            return decode_state(data, self.table.width)
        except RecordDecodeError:
            self.stats["state_rejected"] += 1
            return None

    def _persist(self, rotate_log: bool) -> None:
        """Write state.bin durably; optionally start a fresh log."""
        write_image(self._state_path(), encode_state(self.ledger, self.seq))
        self.base_seq = self.seq
        if rotate_log:
            if self.log is not None:
                self.log.close()
            self.log = DeltaLog.create(self._log_path(), self.base_seq,
                                       sync=False)

    # -- record application --------------------------------------------------

    def _apply(self, record: LogRecord) -> None:
        prefix = Prefix(record.prefix_value, record.prefix_length,
                        self.ledger.width)
        if record.op == ANNOUNCE:
            self.fib.announce(prefix, record.gateway, record.interface)
        else:
            self.fib.withdraw(prefix)
        self.ledger.apply(record)

    def apply_stream(self, record: LogRecord, payload: bytes) -> None:
        """One in-order streamed record: apply, persist, advance."""
        if record.seq <= self.seq:
            self.stats["duplicates_skipped"] += 1
            return
        if record.seq != self.seq + 1:
            # A gap in the contiguous stream — the suffix cannot be
            # trusted to chain; reconcile instead of guessing.
            self.start_recon()
            self.pending.append((record, payload))
            return
        self._apply(record)
        self.log.append(payload)
        self.seq = record.seq
        self.stats["records_applied"] += 1

    # -- connection ----------------------------------------------------------

    def connect(self, deadline: float) -> bool:
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(
                    ("127.0.0.1", self.port), timeout=1.0)
            except OSError:
                time.sleep(0.05)
                continue
            # A caught-up replica sits in this wait until its next tick,
            # so bounding it by the status interval sends the STATUS that
            # confirms its last seq within one interval.  Never zero: that
            # would make the socket non-blocking.
            sock.settimeout(max(0.001, min(0.05, self.status_interval)))
            self.conn = Connection(sock)
            self.reconciling = False
            self.pending = []
            self.conn.send(encode_hello(Hello(
                self.replica_id, self.seq, self.ledger.checksum,
                len(self.ledger))))
            return True
        return False

    def drop_connection(self) -> None:
        if self.conn is not None:
            self.total_bytes_sent += self.conn.bytes_sent
            self.total_bytes_received += self.conn.bytes_received
            self.conn.close()
            self.conn = None

    # -- reconciliation (replica side) ---------------------------------------

    def start_recon(self, cells: Optional[int] = None,
                    seed: Optional[int] = None) -> None:
        if cells is None:
            estimate = max(4, abs(self.last_writer_seq - self.seq) + 4)
            cells = cells_for(min(estimate, max(len(self.ledger), 1)))
        if seed is None:
            seed = (self.recon_seed + 1) & 0xFFFFFFFF
        self.recon_cells = cells
        self.recon_seed = seed
        self.reconciling = True
        self.pending = []
        digest = IBLT(cells, seed=seed)
        for fp in self.ledger.fingerprints():
            digest.insert(fp)
        self.conn.send(encode_recon_start(ReconStart(
            self.seq, len(self.ledger), self.ledger.checksum,
            digest.serialize())))

    def apply_fixups(self, fixups: ReconFixups) -> None:
        """Install the peeled difference; rebase persistence at W."""
        for record in fixups.records:
            self._apply(record)
        fingerprints = self.ledger.fingerprints()
        for fp in fixups.stale:
            entry = fingerprints.get(fp)
            if entry is None:
                continue  # already replaced by a fix-up announce
            self.fib.withdraw(Prefix(entry.value, entry.length,
                                     self.ledger.width))
            self.ledger.remove(entry.key)
        # The route set is now the writer's at its seq, even when this
        # replica's own seq ran ahead (a state file an earlier writer
        # left): naming any other seq in RECON_DONE is unverifiable.
        self.seq = fixups.writer_seq
        self._persist(rotate_log=True)
        self.reconciling = False
        self.stats["recons"] += 1
        self.conn.send(encode_recon_done(ReconDone(
            self.seq, self.ledger.checksum)))
        self._drain_pending()

    def apply_resync(self, resync: Resync) -> None:
        """Full-set reload: rebuild the engine canonically from scratch."""
        self.ledger = RouteLedger.from_records(self.ledger.width,
                                               list(resync.records))
        self.fib = canonical_fib(self.ledger, self.config)
        self.seq = resync.writer_seq
        self._persist(rotate_log=True)
        self.reconciling = False
        self.stats["resyncs"] += 1
        self._drain_pending()

    def _drain_pending(self) -> None:
        pending, self.pending = self.pending, []
        for record, payload in pending:
            self.apply_stream(record, payload)

    # -- periodic work -------------------------------------------------------

    def tick(self, now: float) -> None:
        if (self.conn is not None and not self.reconciling
                and now - self.last_status_sent >= self.status_interval):
            self.conn.send(encode_status(Status(
                self.replica_id, self.seq, self.ledger.checksum,
                len(self.ledger))))
            self.last_status_sent = now
        if now - self.last_scrub >= self.scrub_interval:
            self.run_scrub()
            self.last_scrub = now

    def run_scrub(self) -> Dict[str, int]:
        report = self.fib.engine.scrub()
        detected = sum(report.detected.values())
        repaired = sum(report.repaired.values())
        self.stats["scrub_detected"] += detected
        self.stats["scrub_repaired"] += repaired
        return {"detected": detected, "repaired": repaired,
                "uncorrectable": len(report.uncorrectable)}

    # -- message dispatch ----------------------------------------------------

    def dispatch(self, kind: int, body: Any) -> None:
        if kind == MSG_WELCOME and isinstance(body, Welcome):
            self.last_writer_seq = body.writer_seq
            if body.mode == MODE_DIVERGED:
                self.start_recon()
        elif kind == MSG_RECORD:
            record = decode_record(body)
            if self.reconciling:
                self.pending.append((record, body))
            else:
                self.apply_stream(record, body)
        elif kind == MSG_STATUS_ACK and isinstance(body, StatusAck):
            self.last_writer_seq = body.writer_seq
            if not body.ok and not self.reconciling:
                self.start_recon()
        elif kind == MSG_RECON_RETRY and isinstance(body, ReconRetry):
            self.start_recon(cells=body.cells, seed=body.seed)
        elif kind == MSG_RECON_FIXUPS and isinstance(body, ReconFixups):
            self.apply_fixups(body)
        elif kind == MSG_RESYNC and isinstance(body, Resync):
            self.apply_resync(body)

    # -- control (harness) ---------------------------------------------------

    def control(self, command: Tuple, pipe: Connection) -> bool:
        """Handle one harness command; returns False on stop."""
        kind = command[0]
        if kind == CMD_STOP:
            if self.conn is not None:
                try:
                    self.conn.send(encode_bye())
                except Disconnected:
                    pass
            pipe.send((CMD_STOP, self.replica_id))
            return False
        if kind == CMD_PROBE:
            keys = command[1]
            answers = []
            for key in keys:
                info = self.fib.forward(key)
                answers.append(None if info is None
                               else (info.gateway, info.interface))
            pipe.send((CMD_PROBE, self.replica_id, answers))
        elif kind == CMD_VERIFY:
            image = HardwareImage.snapshot(
                canonical_fib(self.ledger, self.config).engine)
            pipe.send((CMD_VERIFY, self.replica_id, image.tables,
                       self.seq, self.ledger.checksum, len(self.ledger)))
        elif kind == CMD_STATUS:
            conn = self.conn
            sent = self.total_bytes_sent + (conn.bytes_sent if conn else 0)
            received = (self.total_bytes_received
                        + (conn.bytes_received if conn else 0))
            pipe.send((CMD_STATUS, self.replica_id, {
                "seq": self.seq,
                "checksum": self.ledger.checksum if self.ledger else 0,
                "routes": len(self.ledger) if self.ledger else 0,
                "connected": conn is not None,
                "reconciling": self.reconciling,
                "bytes_sent": sent,
                "bytes_received": received,
                **self.stats,
            }))
        elif kind == CMD_CORRUPT_WORDS:
            count, seed = command[1], command[2]
            injector = FaultInjector(seed)
            flipped = 0
            for _ in range(count):
                if injector.flip_table_bit(self.fib.engine) is not None:
                    flipped += 1
            pipe.send((CMD_CORRUPT_WORDS, self.replica_id, flipped))
        elif kind == CMD_CORRUPT_DROP:
            # Silently lose one route: ledger + engine both forget it,
            # so only the writer's digest can notice.
            entries = self.ledger.sorted_entries()
            dropped = None
            if entries:
                entry = random.Random(command[1]).choice(entries)
                self.fib.withdraw(Prefix(entry.value, entry.length,
                                         self.ledger.width))
                self.ledger.remove(entry.key)
                dropped = entry.key
            pipe.send((CMD_CORRUPT_DROP, self.replica_id, dropped))
        elif kind == CMD_CORRUPT_PHANTOM:
            rng = random.Random(command[1])
            width = self.ledger.width
            length = rng.randint(9, 24)
            while True:
                value = rng.getrandbits(length)
                if self.ledger.get((value, length)) is None:
                    break
            self.fib.announce(Prefix(value, length, width),
                              "10.255.0.1", "eth9")
            self.ledger.set_entry(RouteEntry(value, length, "10.255.0.1",
                                             "eth9", self.seq))
            pipe.send((CMD_CORRUPT_PHANTOM, self.replica_id,
                       (value, length)))
        elif kind == CMD_PARTITION:
            self.partition_until = time.monotonic() + command[1]
            pipe.send((CMD_PARTITION, self.replica_id, command[1]))
        elif kind == CMD_SCRUB:
            pipe.send((CMD_SCRUB, self.replica_id, self.run_scrub()))
        return True


def replica_main(replica_id: int, port: int, table: RoutingTable,
                 config: ChiselConfig, directory: str, pipe: Connection,
                 status_interval: float = 0.1,
                 scrub_interval: float = 0.25) -> int:
    """The replica process entry point (module-level: spawn-safe)."""
    runtime = _ReplicaRuntime(replica_id, port, table, config, directory,
                              status_interval, scrub_interval)
    parent_pid = os.getppid()
    try:
        runtime.boot()
        if not runtime.connect(time.monotonic() + 10.0):
            pipe.send(("error", replica_id, "cannot reach writer"))
            return 1
        idle_since = time.monotonic()
        while True:
            now = time.monotonic()
            # Control first: probes and corruption must work even while
            # partitioned from the writer.
            if pipe.poll():
                if not runtime.control(pipe.recv(), pipe):
                    return 0
                continue
            if now - idle_since > _ORPHAN_POLL_SECONDS:
                if os.getppid() != parent_pid:
                    return 2  # harness died; do not linger
                idle_since = now
            if runtime.partition_until > now:
                # Partitioned: no socket reads or writes; the kernel
                # buffers the writer's stream until we heal.
                time.sleep(0.01)
                continue
            if runtime.conn is None:
                runtime.stats["reconnects"] += 1
                if not runtime.connect(now + 5.0):
                    pipe.send(("error", replica_id, "writer unreachable"))
                    return 1
            try:
                kind, body = runtime.conn.recv()
            except socket.timeout:
                runtime.tick(time.monotonic())
                continue
            except (Disconnected, WireError, OSError):
                runtime.drop_connection()
                time.sleep(0.05)
                continue
            runtime.dispatch(kind, body)
            runtime.tick(time.monotonic())
    except EOFError:
        return 2  # the harness is gone
    except KeyboardInterrupt:
        return 130
    except Exception as error:  # surface, never vanish silently
        with suppress(OSError):  # unless the harness is gone
            pipe.send(("error", replica_id, repr(error)))
        return 1
    finally:
        runtime.drop_connection()
        if runtime.log is not None:
            runtime.log.close()
