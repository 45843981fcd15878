"""Append-only CRC-framed delta log with fsync discipline.

File layout::

    [16-byte header: b"CHZLOG2\\0" + u64 generation]
    [frame]*            frame = [u32 payload length][u32 crc32][payload]

Each payload is one :class:`~repro.store.records.LogRecord`, a sequenced
ANNOUNCE or WITHDRAW command.  A log of format 1 (``CHZLOG1``) replays
as ``bad-header``.

The writer appends a frame, flushes, and fsyncs before acknowledging
(``sync="always"``); :func:`crashpoint` markers bracket every boundary
so the crash harness can kill at each one.  Replay walks frames from the
start and stops at the first damage, classifying it:

``torn``
    the final frame is incomplete (length field or payload ran off the
    end of the file) — the expected signature of a crash mid-append;
    the valid prefix is intact and the torn bytes were never durable.
``corrupt``
    a CRC or payload-decode failure with more data after it (bit rot in
    a durable record), or a sequence gap.  Replay refuses to skip over
    it — records after unreadable damage cannot be trusted to chain.
``ok``
    every frame read back clean.

Duplicated frames (the crash-recovery double-append case: a record was
durable but the writer died before recording that fact) are detected by
sequence number and skipped, never re-applied.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .checkpoint import fsync_directory
from .crashpoints import crashpoint
from .records import LogRecord, RecordDecodeError, decode_record

_LOG_MAGIC = b"CHZLOG2\0"
_HEADER = struct.Struct("<8sQ")
_FRAME = struct.Struct("<II")

#: Split point for the two-phase frame write: bytes flushed before the
#: ``log:torn`` crashpoint.  Killing there leaves a genuinely torn frame.
_TORN_SPLIT = 6


@dataclass
class LogReplay:
    """The readable prefix of one log file."""

    generation: int
    records: List[LogRecord] = field(default_factory=list)
    status: str = "ok"  # ok | torn | corrupt | missing | bad-header
    detail: str = ""
    valid_length: int = 0
    frames: int = 0
    duplicates_skipped: int = 0

    @property
    def clean(self) -> bool:
        return self.status == "ok"

    @property
    def damaged(self) -> bool:
        return self.status in ("corrupt", "bad-header")


class DeltaLog:
    """Single-writer append handle over one log file."""

    def __init__(self, path: str, generation: int, sync: bool = True,
                 _handle: Optional[object] = None) -> None:
        self.path = path
        self.generation = generation
        self.sync = sync
        if _handle is not None:
            self._file = _handle
        else:
            self._file = open(path, "ab")
        self._closed = False

    @classmethod
    def create(cls, path: str, generation: int,
               sync: bool = True) -> "DeltaLog":
        """Create a fresh log with a durable header.

        The header is fsynced before the caller proceeds, so a log that
        exists with a readable header has existed durably — a torn
        header can only mean a crash before any record was appended.
        """
        handle = open(path, "wb")
        handle.write(_HEADER.pack(_LOG_MAGIC, generation))
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        return cls(path, generation, sync=sync)

    @classmethod
    def open_append(cls, path: str, generation: int, valid_length: int,
                    sync: bool = True) -> "DeltaLog":
        """Reopen a log for appending after replay.

        ``valid_length`` is the replayed-clean byte count; anything after
        it (a torn tail) is truncated away so new frames chain onto the
        valid prefix instead of hiding behind garbage.  When replay found
        no durable header (the log is missing, or torn inside its
        header), the log is created afresh, header and directory entry
        fsynced: frames appended behind no magic would make the next
        replay refuse the whole log.
        """
        if valid_length < _HEADER.size:
            log = cls.create(path, generation, sync=sync)
            fsync_directory(os.path.dirname(path) or ".")
            return log
        handle = open(path, "r+b")
        handle.truncate(valid_length)
        handle.seek(0, os.SEEK_END)
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, generation, sync=sync, _handle=handle)

    def append(self, payload: bytes) -> None:
        """Frame, write and (optionally) fsync one record payload.

        The frame is written in two flushed chunks with a crashpoint
        between them: a kill at ``log:torn`` leaves a real torn frame on
        disk, exactly what a power cut mid-write produces.
        """
        if self._closed:
            raise ValueError(f"log {self.path} is closed")
        frame = _FRAME.pack(len(payload),
                            zlib.crc32(payload) & 0xFFFFFFFF) + payload
        crashpoint("log:append-pre")
        split = min(_TORN_SPLIT, len(frame) - 1)
        self._file.write(frame[:split])
        self._file.flush()
        crashpoint("log:torn")
        self._file.write(frame[split:])
        self._file.flush()
        crashpoint("log:written")
        if self.sync:
            os.fsync(self._file.fileno())
            crashpoint("log:durable")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()


def scan_frames(path: str) -> List[Tuple[int, int]]:
    """(offset, total frame size) of every structurally-complete frame.

    Used by the fault injectors to aim corruption at exact frames; does
    not validate CRCs.
    """
    frames: List[Tuple[int, int]] = []
    with open(path, "rb") as handle:
        data = handle.read()
    position = _HEADER.size
    while position + _FRAME.size <= len(data):
        length, _crc = _FRAME.unpack_from(data, position)
        total = _FRAME.size + length
        if position + total > len(data):
            break
        frames.append((position, total))
        position += total
    return frames


def replay_log(path: str, start_seq: int = 0,
               expected_generation: Optional[int] = None) -> LogReplay:
    """Read back the valid prefix of one log file.

    ``start_seq`` skips records already covered by the checkpoint being
    replayed onto (records carry absolute sequence numbers).  Exact
    duplicates (same seq as the last applied record) are skipped and
    counted; a gap or regression beyond that is corruption.
    """
    replay = LogReplay(generation=expected_generation or 0)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        replay.status = "missing"
        replay.detail = f"{path} does not exist"
        return replay
    if len(data) < _HEADER.size:
        # Crash between log creation and the header fsync completing;
        # no record can have been appended to it.
        replay.status = "torn"
        replay.detail = "torn header (log created but never synced)"
        return replay
    magic, generation = _HEADER.unpack_from(data, 0)
    if magic != _LOG_MAGIC:
        replay.status = "bad-header"
        replay.detail = f"bad log magic {magic!r}"
        return replay
    if expected_generation is not None and generation != expected_generation:
        replay.status = "bad-header"
        replay.detail = (f"log generation {generation} != expected "
                         f"{expected_generation}")
        return replay
    replay.generation = generation
    position = _HEADER.size
    replay.valid_length = position
    last_seq = start_seq
    while position < len(data):
        if position + _FRAME.size > len(data):
            replay.status = "torn"
            replay.detail = (f"torn frame header at {position} "
                             f"({len(data) - position} trailing bytes)")
            return replay
        length, stored_crc = _FRAME.unpack_from(data, position)
        payload_start = position + _FRAME.size
        payload_end = payload_start + length
        if payload_end > len(data):
            replay.status = "torn"
            replay.detail = (f"torn payload at {position}: frame wants "
                             f"{length} bytes, {len(data) - payload_start} "
                             f"present")
            return replay
        payload = data[payload_start:payload_end]
        if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
            at_tail = payload_end == len(data)
            replay.status = "torn" if at_tail else "corrupt"
            replay.detail = f"CRC mismatch in frame at {position}"
            return replay
        try:
            record = decode_record(payload)
        except RecordDecodeError as error:
            at_tail = payload_end == len(data)
            replay.status = "torn" if at_tail else "corrupt"
            replay.detail = f"undecodable frame at {position}: {error}"
            return replay
        replay.frames += 1
        if record.seq <= last_seq:
            # Double-append after a crash between fsync and ack, or a
            # record the checkpoint already covers.
            replay.duplicates_skipped += 1
        elif record.seq == last_seq + 1:
            replay.records.append(record)
            last_seq = record.seq
        else:
            replay.status = "corrupt"
            replay.detail = (f"sequence gap at {position}: record seq "
                             f"{record.seq} after {last_seq}")
            return replay
        position = payload_end
        replay.valid_length = position
    return replay
