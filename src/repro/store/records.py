"""Binary codec for delta-log records.

One log record is one durably-applied route update command, carrying:

* an absolute sequence number (``seq``) — replay uses it to skip
  duplicated frames and to detect gaps;
* the command: ANNOUNCE or WITHDRAW, the prefix value and length, and
  for an announce its gateway and interface.

Nothing word-level is journaled.  The §4.4 software shadow is the
authority and the hardware words follow from it, so replay re-applies
commands through the same :class:`~repro.router.fib.ForwardingEngine`
path the writer used, which is what makes recovery byte-identical to a
golden rebuild (engine updates are deterministic, proven by
``tests/test_recovery_property.py``).

Values use LEB128 varints because prefix values are arbitrary Python
ints: an IPv6 prefix value reaches ``2**128``, which a fixed 64-bit
field would silently truncate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..integrity import IntegrityError

#: Record kinds (the first payload byte).
ANNOUNCE = 1
WITHDRAW = 2

_KINDS = (ANNOUNCE, WITHDRAW)


class RecordDecodeError(IntegrityError, ValueError):
    """A record payload failed structural validation."""


# -- varint primitives -------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise RecordDecodeError(f"uvarint cannot encode negative {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(buffer: bytes, position: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if position >= len(buffer):
            raise RecordDecodeError("truncated varint")
        byte = buffer[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 1024:
            # Values are bounded by 2**width (<= 2**128); anything this
            # long is garbage, not a big prefix value.
            raise RecordDecodeError("runaway varint")


def _write_string(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    _write_uvarint(out, len(encoded))
    out.extend(encoded)


def _read_string(buffer: bytes, position: int) -> Tuple[str, int]:
    length, position = _read_uvarint(buffer, position)
    end = position + length
    if end > len(buffer):
        raise RecordDecodeError("truncated string")
    try:
        return buffer[position:end].decode("utf-8"), end
    except UnicodeDecodeError as error:
        raise RecordDecodeError(f"malformed string: {error}") from error


# -- log records -------------------------------------------------------------


@dataclass(frozen=True)
class LogRecord:
    """One sequenced route command (ANNOUNCE or WITHDRAW), decoded."""

    op: int
    seq: int
    prefix_value: int = 0
    prefix_length: int = 0
    gateway: str = ""
    interface: str = ""


def encode_record(record: LogRecord) -> bytes:
    """Serialize one log record payload (pre-framing)."""
    if record.op not in _KINDS:
        raise RecordDecodeError(f"unknown record op {record.op}")
    out = bytearray([record.op])
    _write_uvarint(out, record.seq)
    _write_uvarint(out, record.prefix_value)
    _write_uvarint(out, record.prefix_length)
    if record.op == ANNOUNCE:
        _write_string(out, record.gateway)
        _write_string(out, record.interface)
    return bytes(out)


def decode_record(buffer: bytes) -> LogRecord:
    """Parse one record payload; raises ``RecordDecodeError`` on damage."""
    if not buffer:
        raise RecordDecodeError("empty record payload")
    op = buffer[0]
    if op not in _KINDS:
        raise RecordDecodeError(f"unknown record op {op}")
    seq, position = _read_uvarint(buffer, 1)
    prefix_value, position = _read_uvarint(buffer, position)
    prefix_length, position = _read_uvarint(buffer, position)
    gateway = interface = ""
    if op == ANNOUNCE:
        gateway, position = _read_string(buffer, position)
        interface, position = _read_string(buffer, position)
    _expect_end(buffer, position)
    return LogRecord(op=op, seq=seq, prefix_value=prefix_value,
                     prefix_length=prefix_length, gateway=gateway,
                     interface=interface)


def encode_records(records: List[LogRecord]) -> bytes:
    """Length-prefixed concatenation of record payloads.

    The batch form the replication wire protocol ships (RESYNC bodies,
    reconciliation fix-ups): ``uvarint count`` then, per record,
    ``uvarint length + payload``.
    """
    out = bytearray()
    _write_uvarint(out, len(records))
    for record in records:
        payload = encode_record(record)
        _write_uvarint(out, len(payload))
        out.extend(payload)
    return bytes(out)


def decode_records(buffer: bytes,
                   position: int = 0) -> Tuple[List[LogRecord], int]:
    """Parse an ``encode_records`` batch; returns (records, next position)."""
    count, position = _read_uvarint(buffer, position)
    records: List[LogRecord] = []
    for _ in range(count):
        length, position = _read_uvarint(buffer, position)
        end = position + length
        if end > len(buffer):
            raise RecordDecodeError("truncated record in batch")
        records.append(decode_record(buffer[position:end]))
        position = end
    return records, position


def _expect_end(buffer: bytes, position: int) -> None:
    if position != len(buffer):
        raise RecordDecodeError(
            f"{len(buffer) - position} trailing bytes after record"
        )
