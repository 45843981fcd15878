"""The replication wire protocol: CRC-framed messages over a socket.

Framing reuses the delta log's discipline (``store/deltalog.py``): every
message is ``[u32 length][u32 crc32][payload]``, and the payload is one
type byte followed by a body encoded with the same LEB128 varint
primitives as log records (``store/records.py``).  A replica's local
log, the writer's journal, and the bytes on the wire therefore share
one codec — what replays from disk is exactly what streams.

Message flow (docs/REPLICATION.md has the full diagram)::

    replica                              writer
      HELLO(id, resume_seq, cksum) --->
                                   <--- WELCOME(writer_seq, mode)
                                   <--- RECORD*          (stream mode)
      STATUS(seq, cksum) --------->
                                   <--- STATUS_ACK(ok, writer_seq)
      RECON_START(iblt) ---------->      (diverged mode, or on divergence)
                                   <--- RECON_RETRY(cells, seed)   (peel failed)
                                   <--- RECON_FIXUPS(seq, records, stale)
      RECON_DONE(seq, cksum) ----->
                                   <--- RESYNC(seq, records)  (IBLT's backstop)

``Connection`` wraps a socket with buffered frame reassembly and byte
counters on both directions — the counters are the measurement the
traffic-proportionality gate reads, so *all* replication traffic goes
through here and nothing else rides the socket.
"""

from __future__ import annotations

import socket
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..integrity import IntegrityError
from ..store.records import (
    LogRecord,
    RecordDecodeError,
    _read_uvarint,
    _write_uvarint,
    decode_records,
    encode_records,
)

_FRAME = struct.Struct("<II")  # payload length, crc32 — as deltalog frames

#: Message types (first payload byte).
MSG_HELLO = 1
MSG_WELCOME = 2
MSG_RECORD = 3
MSG_STATUS = 4
MSG_STATUS_ACK = 5
MSG_RECON_START = 6
MSG_RECON_RETRY = 7
MSG_RECON_FIXUPS = 8
MSG_RECON_DONE = 9
MSG_RESYNC = 10
MSG_BYE = 11

#: WELCOME modes.
MODE_STREAM = 0     # the journal holds the resume point at its checksum
MODE_DIVERGED = 1   # otherwise (other routes, outside the window): reconcile

#: Hard cap on one frame — larger than any real message (a resync of a
#: million routes is ~40 MB), small enough that a corrupt length field
#: cannot make a reader try to buffer gigabytes.
MAX_FRAME = 64 << 20


class WireError(IntegrityError, RuntimeError):
    """A malformed frame or message body (protocol violation)."""


class Disconnected(RuntimeError):
    """The peer closed the connection (EOF mid-session)."""


# -- message bodies ----------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    replica_id: int
    resume_seq: int
    checksum: int
    count: int


@dataclass(frozen=True)
class Welcome:
    writer_seq: int
    mode: int


@dataclass(frozen=True)
class Status:
    replica_id: int
    seq: int
    checksum: int
    count: int


@dataclass(frozen=True)
class StatusAck:
    ok: bool
    writer_seq: int


@dataclass(frozen=True)
class ReconStart:
    seq: int
    count: int
    checksum: int
    digest: bytes  # serialized IBLT


@dataclass(frozen=True)
class ReconRetry:
    cells: int
    seed: int


@dataclass(frozen=True)
class ReconFixups:
    writer_seq: int
    writer_checksum: int
    records: Tuple[LogRecord, ...]
    stale: Tuple[int, ...]  # fingerprints only the replica holds


@dataclass(frozen=True)
class ReconDone:
    seq: int
    checksum: int


@dataclass(frozen=True)
class Resync:
    writer_seq: int
    checksum: int
    records: Tuple[LogRecord, ...]


def encode_hello(message: Hello) -> bytes:
    out = bytearray([MSG_HELLO])
    _write_uvarint(out, message.replica_id)
    _write_uvarint(out, message.resume_seq)
    _write_uvarint(out, message.checksum)
    _write_uvarint(out, message.count)
    return bytes(out)


def encode_welcome(message: Welcome) -> bytes:
    out = bytearray([MSG_WELCOME])
    _write_uvarint(out, message.writer_seq)
    out.append(message.mode)
    return bytes(out)


def encode_record_msg(payload: bytes) -> bytes:
    """A RECORD message carries one pre-encoded log-record payload."""
    return bytes([MSG_RECORD]) + payload


def encode_status(message: Status) -> bytes:
    out = bytearray([MSG_STATUS])
    _write_uvarint(out, message.replica_id)
    _write_uvarint(out, message.seq)
    _write_uvarint(out, message.checksum)
    _write_uvarint(out, message.count)
    return bytes(out)


def encode_status_ack(message: StatusAck) -> bytes:
    out = bytearray([MSG_STATUS_ACK, 1 if message.ok else 0])
    _write_uvarint(out, message.writer_seq)
    return bytes(out)


def encode_recon_start(message: ReconStart) -> bytes:
    out = bytearray([MSG_RECON_START])
    _write_uvarint(out, message.seq)
    _write_uvarint(out, message.count)
    _write_uvarint(out, message.checksum)
    _write_uvarint(out, len(message.digest))
    out.extend(message.digest)
    return bytes(out)


def encode_recon_retry(message: ReconRetry) -> bytes:
    out = bytearray([MSG_RECON_RETRY])
    _write_uvarint(out, message.cells)
    _write_uvarint(out, message.seed)
    return bytes(out)


def encode_recon_fixups(message: ReconFixups) -> bytes:
    out = bytearray([MSG_RECON_FIXUPS])
    _write_uvarint(out, message.writer_seq)
    _write_uvarint(out, message.writer_checksum)
    out.extend(encode_records(list(message.records)))
    _write_uvarint(out, len(message.stale))
    for fp in message.stale:
        _write_uvarint(out, fp)
    return bytes(out)


def encode_recon_done(message: ReconDone) -> bytes:
    out = bytearray([MSG_RECON_DONE])
    _write_uvarint(out, message.seq)
    _write_uvarint(out, message.checksum)
    return bytes(out)


def encode_resync(message: Resync) -> bytes:
    out = bytearray([MSG_RESYNC])
    _write_uvarint(out, message.writer_seq)
    _write_uvarint(out, message.checksum)
    out.extend(encode_records(list(message.records)))
    return bytes(out)


def encode_bye() -> bytes:
    return bytes([MSG_BYE])


def decode_message(payload: bytes):
    """Parse one message payload into (type, body object or bytes)."""
    if not payload:
        raise WireError("empty message payload")
    kind = payload[0]
    position = 1
    try:
        if kind == MSG_HELLO:
            replica_id, position = _read_uvarint(payload, position)
            resume_seq, position = _read_uvarint(payload, position)
            checksum, position = _read_uvarint(payload, position)
            count, position = _read_uvarint(payload, position)
            return kind, Hello(replica_id, resume_seq, checksum, count)
        if kind == MSG_WELCOME:
            writer_seq, position = _read_uvarint(payload, position)
            mode = payload[position]
            if mode not in (MODE_STREAM, MODE_DIVERGED):
                raise WireError(f"unknown WELCOME mode {mode}")
            return kind, Welcome(writer_seq, mode)
        if kind == MSG_RECORD:
            return kind, payload[1:]  # decoded by the applier
        if kind == MSG_STATUS:
            replica_id, position = _read_uvarint(payload, position)
            seq, position = _read_uvarint(payload, position)
            checksum, position = _read_uvarint(payload, position)
            count, position = _read_uvarint(payload, position)
            return kind, Status(replica_id, seq, checksum, count)
        if kind == MSG_STATUS_ACK:
            ok = payload[position] == 1
            position += 1
            writer_seq, position = _read_uvarint(payload, position)
            return kind, StatusAck(ok, writer_seq)
        if kind == MSG_RECON_START:
            seq, position = _read_uvarint(payload, position)
            count, position = _read_uvarint(payload, position)
            checksum, position = _read_uvarint(payload, position)
            length, position = _read_uvarint(payload, position)
            digest = payload[position:position + length]
            if len(digest) != length:
                raise WireError("truncated IBLT digest")
            return kind, ReconStart(seq, count, checksum, digest)
        if kind == MSG_RECON_RETRY:
            cells, position = _read_uvarint(payload, position)
            seed, position = _read_uvarint(payload, position)
            return kind, ReconRetry(cells, seed)
        if kind == MSG_RECON_FIXUPS:
            writer_seq, position = _read_uvarint(payload, position)
            writer_checksum, position = _read_uvarint(payload, position)
            records, position = decode_records(payload, position)
            stale_count, position = _read_uvarint(payload, position)
            stale = []
            for _ in range(stale_count):
                fp, position = _read_uvarint(payload, position)
                stale.append(fp)
            return kind, ReconFixups(writer_seq, writer_checksum,
                                     tuple(records), tuple(stale))
        if kind == MSG_RECON_DONE:
            seq, position = _read_uvarint(payload, position)
            checksum, position = _read_uvarint(payload, position)
            return kind, ReconDone(seq, checksum)
        if kind == MSG_RESYNC:
            writer_seq, position = _read_uvarint(payload, position)
            checksum, position = _read_uvarint(payload, position)
            records, position = decode_records(payload, position)
            return kind, Resync(writer_seq, checksum, tuple(records))
        if kind == MSG_BYE:
            return kind, None
    except (RecordDecodeError, IndexError) as error:
        raise WireError(f"malformed message type {kind}: {error}") from error
    raise WireError(f"unknown message type {kind}")


# -- framed connection -------------------------------------------------------


class Connection:
    """Buffered frame I/O over one socket, with traffic accounting."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0
        self._buffer = bytearray()
        self._closed = False
        # The writer sends from two threads (stream sender + session
        # reader answering STATUS/RECON); frames must not interleave.
        self._send_lock = threading.Lock()

    def send(self, *payloads: bytes) -> None:
        """Frame message payloads and send them in one write (thread-safe).

        The frames go out back to back, byte-identical to one ``send``
        per payload; one ``sendall`` for the lot lets a sender that
        holds the interpreter lock once ship its whole backlog.
        """
        frames = bytearray()
        for payload in payloads:
            frames += _FRAME.pack(len(payload),
                                  zlib.crc32(payload) & 0xFFFFFFFF)
            frames += payload
        with self._send_lock:
            try:
                self.sock.sendall(frames)
            except OSError as error:
                raise Disconnected(f"send failed: {error}") from error
            self.bytes_sent += len(frames)

    def recv(self):
        """One decoded (type, body); blocks per the socket timeout.

        Raises ``socket.timeout`` with partial data safely buffered,
        ``Disconnected`` on EOF, ``WireError`` on a damaged frame.
        """
        while True:
            message = self._try_parse()
            if message is not None:
                return message
            chunk = self.sock.recv(65536)
            if not chunk:
                raise Disconnected("peer closed the connection")
            self.bytes_received += len(chunk)
            self._buffer.extend(chunk)

    def _try_parse(self):
        if len(self._buffer) < _FRAME.size:
            return None
        length, stored_crc = _FRAME.unpack_from(self._buffer, 0)
        if length > MAX_FRAME:
            raise WireError(f"frame of {length} bytes exceeds the "
                            f"{MAX_FRAME}-byte cap")
        end = _FRAME.size + length
        if len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[_FRAME.size:end])
        del self._buffer[:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
            raise WireError("frame CRC mismatch")
        return decode_message(payload)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.sock.close()
            except OSError:
                pass
