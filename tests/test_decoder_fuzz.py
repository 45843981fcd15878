"""Mutation fuzzers: every byte decoder decodes or raises ``IntegrityError``.

Each fuzzer starts from valid encodings and damages them the ways disk,
socket and shared-memory bytes go bad — truncation, bit flips, a splice
with another valid input, a duplicated range — then feeds the result to
one decoder.  Any exception other than ``IntegrityError`` (an
``IndexError``, ``struct.error``, ``TypeError``, ...) is a stray and
fails the property.  Examples are bounded so tier-1 grows by seconds.
"""

from typing import Sequence

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.integrity import IntegrityError
from repro.replicate.iblt import IBLT
from repro.replicate.wire import (
    Hello,
    ReconDone,
    ReconFixups,
    ReconRetry,
    ReconStart,
    Resync,
    Status,
    StatusAck,
    Welcome,
    decode_message,
    encode_bye,
    encode_hello,
    encode_recon_done,
    encode_recon_fixups,
    encode_recon_retry,
    encode_recon_start,
    encode_record_msg,
    encode_resync,
    encode_status,
    encode_status_ack,
    encode_welcome,
)
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.shard.codec import parse_image_header
from repro.store.checkpoint import CHECKPOINT_MAGIC, render_checkpoint
from repro.store.records import (
    ANNOUNCE,
    WITHDRAW,
    LogRecord,
    decode_records,
    encode_record,
    encode_records,
)
from repro.workloads import synthetic_table

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutated(draw, valid: Sequence[bytes]) -> bytes:
    """One valid input with one to three mutations applied."""
    data = bytearray(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ("truncate", "flip", "splice", "duplicate")))
        size = len(data)
        if kind == "truncate":
            del data[draw(st.integers(0, size)):]
        elif kind == "flip" and size:
            data[draw(st.integers(0, size - 1))] ^= 1 << draw(
                st.integers(0, 7))
        elif kind == "splice":
            other = draw(st.sampled_from(valid))
            cut = draw(st.integers(0, size))
            data[cut:] = other[draw(st.integers(0, len(other))):]
        elif kind == "duplicate" and size:
            start = draw(st.integers(0, size - 1))
            stop = draw(st.integers(start + 1, size))
            at = draw(st.integers(0, size))
            data[at:at] = data[start:stop]
    return bytes(data)


def decodes_or_refuses(decode, data: bytes) -> None:
    try:
        decode(data)
    except IntegrityError:
        pass


RECORDS = [
    LogRecord(op=ANNOUNCE, seq=1, prefix_value=0x0A0100, prefix_length=24,
              gateway="10.8.1.1", interface="eth1"),
    LogRecord(op=WITHDRAW, seq=2, prefix_value=0x0A02, prefix_length=16),
    LogRecord(op=ANNOUNCE, seq=2**40, prefix_value=2**127,
              prefix_length=128, gateway="", interface="é"),
]
RECORD_BATCHES = [encode_records(RECORDS), encode_records(RECORDS[:1]),
                  encode_records([])]


def _iblt(keys: Sequence[int], cells: int = 24) -> bytes:
    table = IBLT(cells, seed=9)
    table.extend(keys)
    return table.serialize()


IBLTS = [_iblt([]), _iblt(range(1, 40), cells=48),
         _iblt([2**64 - 1, 7, 11])]

MESSAGES = [
    encode_hello(Hello(1, 300, 2**63, 100_000)),
    encode_welcome(Welcome(12, 1)),
    encode_record_msg(encode_record(RECORDS[0])),
    encode_status(Status(2, 5, 2**40, 9)),
    encode_status_ack(StatusAck(True, 77)),
    encode_recon_start(ReconStart(5, 9, 123, IBLTS[1])),
    encode_recon_retry(ReconRetry(96, 4)),
    encode_recon_fixups(ReconFixups(8, 99, tuple(RECORDS), (1, 2**64 - 1))),
    encode_recon_done(ReconDone(8, 99)),
    encode_resync(Resync(8, 99, tuple(RECORDS))),
    encode_bye(),
]


def _image_header() -> bytes:
    """A checkpoint's header bytes, up to where its payload starts."""
    router = SnapshotRouter(ForwardingEngine.from_table(
        synthetic_table(40, seed=5)))
    image, healthy = router.persistence_cut(
        lambda snapshot, fib_blob: render_checkpoint(
            snapshot, generation=3, seq=17, blobs={"fib": fib_blob}))
    assert healthy
    _header, payload_start = parse_image_header(
        memoryview(image), "fuzz", magic=CHECKPOINT_MAGIC)
    return bytes(image[:payload_start])


HEADERS = [_image_header()]


@pytest.mark.parametrize("valid, decode", [
    (RECORD_BATCHES, decode_records),
    (IBLTS, IBLT.deserialize),
    (MESSAGES, decode_message),
    (HEADERS, lambda data: parse_image_header(
        memoryview(data), "fuzz", magic=CHECKPOINT_MAGIC)),
], ids=["decode_records", "IBLT.deserialize", "decode_message",
        "parse_image_header"])
def test_valid_inputs_decode(valid, decode):
    for data in valid:
        decode(data)


@FUZZ
@given(mutated(RECORD_BATCHES))
def test_decode_records_fuzz(data):
    decodes_or_refuses(decode_records, data)


@FUZZ
@given(mutated(IBLTS))
def test_iblt_deserialize_fuzz(data):
    decodes_or_refuses(IBLT.deserialize, data)


@FUZZ
@given(mutated(MESSAGES))
def test_decode_message_fuzz(data):
    decodes_or_refuses(decode_message, data)


def _framed(header: str) -> bytes:
    """``header`` behind a length word that matches it."""
    encoded = header.encode("utf-8")
    return len(encoded).to_bytes(8, "little") + encoded + bytes(64)


@FUZZ
@given(mutated(HEADERS))
# Both escaped as stray exceptions (ValueError, RecursionError) before
# the header parser caught them.
@example(_framed('{"magic": "chisel-ckpt-v3", "n": ' + "7" * 5000 + "}"))
@example(_framed("[" * 5000 + "]" * 5000))
def test_parse_image_header_fuzz(data):
    decodes_or_refuses(
        lambda buffer: parse_image_header(
            memoryview(buffer), "fuzz", magic=CHECKPOINT_MAGIC), data)
