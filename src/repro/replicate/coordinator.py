"""The single-writer ``ReplicationCoordinator``.

The coordinator sits between the serving ``SnapshotRouter`` and N
replica processes:

* **Journal** — it adds its own journal hook to the router's (beside
  any store's, see ``SnapshotRouter.add_journal``), so every applied
  route update, numbered by the router, is folded into the writer's
  :class:`~repro.replicate.state.RouteLedger` and kept as its encoded
  payload with the post-update ledger checksum (the per-seq
  verification anchor) in a window of ``_JOURNAL_RECORDS`` records.
* **Streaming** — one sender thread per connected replica pushes
  journal records in seq order, each drained backlog in one socket
  write; a replica that reconnects with ``resume_seq = S`` receives
  only the suffix, which is what makes catch-up traffic proportional
  to the missed count K.  A session the window left behind is closed.
* **Reconciliation** — a replica whose checksum disagrees, or whose
  resume point the journal no longer holds, sends its route set folded
  into an IBLT; the writer folds its own set into the same geometry,
  subtracts, peels, and answers with exactly the differing records
  (plus the fingerprints only the replica holds, so it can withdraw
  them).  Peel failure → retry with doubled cells; past the cell cap,
  or after a RECON_DONE the writer cannot verify → full RESYNC, the
  backstop the traffic gate compares against.

Thread model: the journal hook runs under the router's update lock;
everything else (accept loop, per-session reader + sender) runs in
daemon threads guarded by one coordinator lock + condition.  All
replication traffic flows through :class:`~repro.replicate.wire.
Connection` byte counters — the harness reads them for the
traffic-vs-K gates.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional, Tuple

from ..core.config import ChiselConfig
from ..obs import SIZE_BUCKETS, get_registry
from ..serve.snapshot import SnapshotRouter
from ..store.records import ANNOUNCE, LogRecord
from .iblt import IBLT, cells_for
from .state import RouteEntry, RouteLedger
from .wire import (
    MODE_DIVERGED,
    MODE_STREAM,
    MSG_BYE,
    MSG_HELLO,
    MSG_RECON_DONE,
    MSG_RECON_START,
    MSG_STATUS,
    Connection,
    Disconnected,
    Hello,
    ReconDone,
    ReconFixups,
    ReconRetry,
    ReconStart,
    Resync,
    Status,
    StatusAck,
    Welcome,
    WireError,
    encode_record_msg,
    encode_recon_fixups,
    encode_recon_retry,
    encode_resync,
    encode_status_ack,
    encode_welcome,
)

#: Records per sender batch — bounds lock-hold while draining a backlog
#: and the size of the one write that ships it.
_SENDER_BATCH = 256

#: Records the writer's journal holds at most; reaching it drops the
#: oldest half.  A replica resuming behind what is left reconciles by IBLT.
_JOURNAL_RECORDS = 32_768

#: Give up on IBLT sizing and resync once the table would exceed this
#: multiple of a fresh full-set digest.
_RECON_CELL_CAP_FACTOR = 4


class ReplicaSession:
    """Writer-side state for one connected replica."""

    def __init__(self, replica_id: int, conn: Connection,
                 sent_seq: int) -> None:
        self.replica_id = replica_id
        self.conn = conn
        self.sent_seq = sent_seq  # guarded-by: coordinator lock
        self.alive = True  # guarded-by: coordinator lock
        self.last_status: Optional[Status] = None
        self.recon_retries = 0

    def close(self) -> None:
        """Close the socket only; ``alive`` flips under the coordinator
        lock (see ``_drop_session`` and the ghost replacement)."""
        self.conn.close()


class ReplicationCoordinator:
    """Single-writer replication over localhost sockets."""

    def __init__(self, router: SnapshotRouter, ledger: RouteLedger,
                 config: ChiselConfig, host: str = "127.0.0.1") -> None:
        self.router = router
        self.config = config
        self.host = host
        self.port = 0
        self._ledger = ledger
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # The router's seq when the hook attached (``start``), then the
        # last one the window dropped, and the ledger checksum there.
        self._base_seq = 0
        self._base_checksum = ledger.checksum
        # journal entry i: (base_seq + i + 1, payload, post-checksum)
        self._journal: List[Tuple[int, bytes, int]] = []
        self._sessions: Dict[int, ReplicaSession] = {}
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._closed_sent = 0
        self._closed_received = 0
        self.recon_sessions = 0
        self.resyncs = 0
        registry = get_registry()
        self._obs_streamed = registry.counter(
            "repl_records_streamed_total", "journal records sent to replicas")
        self._obs_writes = registry.counter(
            "repl_stream_writes_total",
            "socket writes that carried streamed records (one per drain)")
        self._obs_recons = registry.counter(
            "repl_recon_sessions_total", "IBLT reconciliation rounds served")
        self._obs_retries = registry.counter(
            "repl_recon_retries_total", "IBLT peels that needed a retry")
        self._obs_resyncs = registry.counter(
            "repl_resyncs_total", "full-set resyncs shipped (IBLT fallback)")
        self._obs_replicas = registry.gauge(
            "repl_connected_replicas", "replica sessions currently attached")
        self._obs_seq = registry.gauge(
            "repl_writer_seq", "last journaled update sequence number")
        self._obs_lag = registry.gauge(
            "repl_max_lag_records", "largest replica lag behind the writer")
        self._obs_msg_bytes = registry.histogram(
            "repl_message_bytes", SIZE_BUCKETS,
            "replication control/reconciliation message payload sizes")

    # -- lifecycle -----------------------------------------------------------

    def listen(self) -> int:
        """Bind the listener (no threads yet — safe to fork after this).

        Split from :meth:`start` so the harness can learn the port,
        spawn replica processes, and only then start accept/session
        threads in the parent.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        # Set before any accept thread runs: a stop() racing the thread's
        # start would otherwise close the socket under the call.
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        return self.port

    def start(self) -> None:
        """Attach the journal hook and start the accept loop.

        The journal continues from the router's seq at the attach, where
        the ledger must hold the router's routes.  (An update racing the
        call makes a replica resuming exactly there reconcile.)
        """
        if self._listener is None:
            self.listen()
        base_seq = self.router.add_journal(self._journal_hook)
        with self._lock:
            self._base_seq = base_seq
            self._base_checksum = self._ledger.checksum
            self._obs_seq.set(self._seq_locked())
        thread = threading.Thread(target=self._accept_loop,
                                  name="repl-accept", daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
            sessions = list(self._sessions.values())
            self._cond.notify_all()
        self.router.remove_journal(self._journal_hook)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for session in sessions:
            session.close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    # -- write path ----------------------------------------------------------

    def _journal_hook(self, record: LogRecord, payload: bytes) -> None:
        """Router journal callback (update lock held): ledger, window, wake."""
        with self._lock:
            self._ledger.apply(record)
            self._journal.append((record.seq, payload,
                                  self._ledger.checksum))
            if len(self._journal) >= _JOURNAL_RECORDS:
                half = len(self._journal) // 2
                self._base_seq, _payload, self._base_checksum = \
                    self._journal[half - 1]
                del self._journal[:half]
            self._obs_seq.set(record.seq)
            self._cond.notify_all()

    def _seq_locked(self) -> int:
        """The seq of the last journaled update."""
        return self._base_seq + len(self._journal)

    def _checksum_at_locked(self, seq: int) -> Optional[int]:
        """The ledger checksum right after ``seq`` applied, if journaled."""
        if seq == self._base_seq:
            return self._base_checksum
        index = seq - self._base_seq - 1
        if 0 <= index < len(self._journal):
            return self._journal[index][2]
        return None

    # -- accept / sessions ---------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        if listener is None:
            return
        while not self._stopping:
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_session, args=(sock,),
                name="repl-session", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _serve_session(self, sock: socket.socket) -> None:
        sock.settimeout(0.25)
        conn = Connection(sock)
        session: Optional[ReplicaSession] = None
        try:
            session = self._handshake(conn)
            if session is None:
                conn.close()
                return
            sender = threading.Thread(
                target=self._sender_loop, args=(session,),
                name=f"repl-send-{session.replica_id}", daemon=True)
            sender.start()
            self._threads.append(sender)
            self._reader_loop(session)
        except (Disconnected, WireError, OSError):
            pass
        finally:
            self._drop_session(session, conn)

    def _handshake(self, conn: Connection) -> Optional[ReplicaSession]:
        while True:
            try:
                kind, body = conn.recv()
                break
            except socket.timeout:
                if self._stopping:
                    return None
        if kind != MSG_HELLO or not isinstance(body, Hello):
            raise WireError(f"expected HELLO, got message type {kind}")
        hello = body
        with self._lock:
            writer_seq = self._seq_locked()
            # None past either end of the window: a resume point behind
            # it, or one ahead of this writer, reconciles.
            streams = (self._checksum_at_locked(hello.resume_seq)
                       == hello.checksum)
        mode = MODE_STREAM if streams else MODE_DIVERGED
        payload = encode_welcome(Welcome(writer_seq, mode))
        conn.send(payload)
        self._obs_msg_bytes.observe(len(payload))
        # A diverged replica answers with RECON_START; stream only the
        # post-handshake suffix meanwhile (it queues records while
        # reconciling and drops the already-covered ones after).
        sent_seq = hello.resume_seq if streams else writer_seq
        session = ReplicaSession(hello.replica_id, conn, sent_seq)
        with self._lock:
            previous = self._sessions.get(hello.replica_id)
            if previous is not None:
                previous.alive = False
            self._sessions[hello.replica_id] = session
            self._obs_replicas.set(len(self._sessions))
        if previous is not None:
            previous.close()  # a respawned replica replaces its ghost
        return session

    def _drop_session(self, session: Optional[ReplicaSession],
                      conn: Connection) -> None:
        with self._lock:
            self._closed_sent += conn.bytes_sent
            self._closed_received += conn.bytes_received
            if session is not None:
                if self._sessions.get(session.replica_id) is session:
                    del self._sessions[session.replica_id]
                self._obs_replicas.set(len(self._sessions))
                session.alive = False
                self._cond.notify_all()
        conn.close()

    # -- streaming -----------------------------------------------------------

    def _sender_loop(self, session: ReplicaSession) -> None:
        try:
            while True:
                with self._lock:
                    while (session.alive and not self._stopping
                           and session.sent_seq >= self._seq_locked()):
                        self._cond.wait(0.2)
                    if not session.alive or self._stopping:
                        return
                    start = session.sent_seq - self._base_seq
                    if start < 0:
                        # The window dropped records this replica still
                        # needs: close the session, and the replica
                        # reconnects into a reconciliation.
                        session.alive = False
                        self._cond.notify_all()
                        break
                    batch = [payload for _seq, payload, _ck in
                             self._journal[start:start + _SENDER_BATCH]]
                    session.sent_seq += len(batch)
                # One write per drain: the writer's update loop holds the
                # interpreter lock between this thread's turns, so a write
                # per record would ship one record per turn.
                session.conn.send(*map(encode_record_msg, batch))
                self._obs_writes.inc()
                self._obs_streamed.inc(len(batch))
            session.close()
        except (Disconnected, OSError):
            with self._lock:
                session.alive = False
                self._cond.notify_all()

    # -- replica -> writer messages ------------------------------------------

    def _reader_loop(self, session: ReplicaSession) -> None:
        while True:
            with self._lock:
                if not session.alive or self._stopping:
                    return
            try:
                kind, body = session.conn.recv()
            except socket.timeout:
                continue
            if kind == MSG_STATUS and isinstance(body, Status):
                self._handle_status(session, body)
            elif kind == MSG_RECON_START and isinstance(body, ReconStart):
                self._handle_recon(session, body)
            elif kind == MSG_RECON_DONE and isinstance(body, ReconDone):
                self._handle_recon_done(session, body)
            elif kind == MSG_BYE:
                return

    def _handle_status(self, session: ReplicaSession, status: Status) -> None:
        session.last_status = status
        with self._lock:
            writer_seq = self._seq_locked()
            expected = self._checksum_at_locked(status.seq)
            lag = max(((writer_seq - other.last_status.seq)
                       for other in self._sessions.values()
                       if other.last_status is not None), default=0)
        self._obs_lag.set(lag)
        ok = expected is not None and expected == status.checksum
        payload = encode_status_ack(StatusAck(ok, writer_seq))
        session.conn.send(payload)
        self._obs_msg_bytes.observe(len(payload))

    def _handle_recon(self, session: ReplicaSession,
                      start: ReconStart) -> None:
        """Subtract + peel the replica's digest; answer with fix-ups."""
        theirs = IBLT.deserialize(start.digest)
        with self._lock:
            writer_seq = self._seq_locked()
            writer_checksum = self._ledger.checksum
            fingerprints = self._ledger.fingerprints()
        mine = IBLT(theirs.cells, theirs.hashes, theirs.seed)
        for fp in fingerprints:
            mine.insert(fp)
        decoded = mine.subtract(theirs).decode()
        if decoded is None:
            session.recon_retries += 1
            self._obs_retries.inc()
            cells = theirs.cells * 2
            cap = cells_for(
                max(len(fingerprints), start.count, 1)
            ) * _RECON_CELL_CAP_FACTOR
            if cells > cap:
                # The difference is no smaller than the sets themselves;
                # shipping the whole ledger is cheaper than more digests.
                self._send_resync(session)
                return
            payload = encode_recon_retry(ReconRetry(cells, theirs.seed + 1))
            session.conn.send(payload)
            self._obs_msg_bytes.observe(len(payload))
            return
        writer_only, replica_only = decoded
        records = [
            self._entry_record(fingerprints[fp])
            for fp in sorted(writer_only) if fp in fingerprints
        ]
        stale = tuple(sorted(fp for fp in replica_only))
        payload = encode_recon_fixups(ReconFixups(
            writer_seq, writer_checksum, tuple(records), stale))
        session.conn.send(payload)
        self._obs_msg_bytes.observe(len(payload))
        self.recon_sessions += 1
        self._obs_recons.inc()

    @staticmethod
    def _entry_record(entry: RouteEntry) -> LogRecord:
        return LogRecord(op=ANNOUNCE, seq=entry.seq,
                         prefix_value=entry.value,
                         prefix_length=entry.length,
                         gateway=entry.gateway, interface=entry.interface)

    def _handle_recon_done(self, session: ReplicaSession,
                           done: ReconDone) -> None:
        with self._lock:
            expected = self._checksum_at_locked(done.seq)
        if expected is None or expected != done.checksum:
            # Reconciliation left the replica wrong (or unverifiable):
            # the backstop full resync, never a silent divergence.
            self._send_resync(session)

    def _build_resync(self) -> Tuple[bytes, int]:
        with self._lock:
            records = self._ledger.to_records()
            seq = self._seq_locked()
            checksum = self._ledger.checksum
        return encode_resync(Resync(seq, checksum, tuple(records))), seq

    def _send_resync(self, session: ReplicaSession) -> None:
        """Ship the whole ledger (IBLT's backstop); stream on past it."""
        resync, resync_seq = self._build_resync()
        session.conn.send(resync)
        self._obs_msg_bytes.observe(len(resync))
        self.resyncs += 1
        self._obs_resyncs.inc()
        with self._lock:
            session.sent_seq = max(session.sent_seq, resync_seq)

    # -- introspection -------------------------------------------------------

    @property
    def seq(self) -> int:
        with self._lock:
            return self._seq_locked()

    @property
    def ledger(self) -> RouteLedger:
        return self._ledger

    def checkpoint_bytes(self) -> int:
        """Size of a full-state ship — the baseline reconciliation must
        beat (the o(checkpoint) side of the traffic gate)."""
        payload, _seq = self._build_resync()
        return len(payload)

    def traffic(self) -> Dict[str, int]:
        """Total replication bytes over all sessions, live and closed."""
        with self._lock:
            sent = self._closed_sent
            received = self._closed_received
            for session in self._sessions.values():
                sent += session.conn.bytes_sent
                received += session.conn.bytes_received
        return {"bytes_sent": sent, "bytes_received": received}

    def status(self) -> Dict[str, object]:
        with self._lock:
            sessions = {
                session.replica_id: {
                    "sent_seq": session.sent_seq,
                    "last_status_seq": (session.last_status.seq
                                        if session.last_status else None),
                    "bytes_sent": session.conn.bytes_sent,
                    "bytes_received": session.conn.bytes_received,
                    "recon_retries": session.recon_retries,
                }
                for session in self._sessions.values()
            }
            return {
                "writer_seq": self._seq_locked(),
                "journal_records": len(self._journal),
                "routes": len(self._ledger),
                "checksum": self._ledger.checksum,
                "connected": len(sessions),
                "recon_sessions": self.recon_sessions,
                "resyncs": self.resyncs,
                "sessions": sessions,
            }
