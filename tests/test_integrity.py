"""Every byte decoder fails with one typed error, ``IntegrityError``.

Each case damages one input of one decoder — a checkpoint, a record
batch, a wire message, an IBLT blob, a replica's state file — and
asserts the shared base class, so a caller that must never serve
damaged bytes catches one type.  The subclasses keep their historical
``RuntimeError``/``ValueError`` bases.
"""

import pytest

from repro.integrity import IntegrityError
from repro.replicate.iblt import IBLT, IBLTError
from repro.replicate.replica import decode_state, encode_state
from repro.replicate.state import RouteLedger
from repro.replicate.wire import Status, WireError, decode_message, encode_status
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.shard.codec import SnapshotIntegrityError
from repro.store.checkpoint import (
    CheckpointCorruptError,
    load_checkpoint,
    render_checkpoint,
    write_image,
)
from repro.store.records import (
    ANNOUNCE,
    LogRecord,
    RecordDecodeError,
    decode_records,
    encode_records,
)
from repro.workloads import synthetic_table


def _flipped_checkpoint(tmp_path):
    table = synthetic_table(300, seed=21)
    router = SnapshotRouter(ForwardingEngine.from_table(table))
    image, healthy = router.persistence_cut(
        lambda snapshot, fib_blob: render_checkpoint(
            snapshot, generation=1, seq=0, blobs={"fib": fib_blob}))
    assert healthy
    image[8] ^= 0x04  # the header's first JSON byte
    path = str(tmp_path / "checkpoint-00000001.chz")
    write_image(path, bytes(image))
    return lambda: load_checkpoint(path)


def _records():
    return encode_records([
        LogRecord(op=ANNOUNCE, seq=seq, prefix_value=seq, prefix_length=16,
                  gateway="10.0.0.1", interface="eth0")
        for seq in range(1, 4)
    ])


def _state_crc_mismatch(_tmp_path):
    state = bytearray(encode_state(
        RouteLedger.from_table(synthetic_table(50, seed=3)), base_seq=7))
    state[-1] ^= 0x01
    return lambda: decode_state(bytes(state), 32)


DAMAGED = {
    "checkpoint-header-flip": _flipped_checkpoint,
    "records-truncated": lambda _tmp_path: (
        lambda: decode_records(_records()[:-3])),
    "wire-empty": lambda _tmp_path: lambda: decode_message(b""),
    "wire-truncated": lambda _tmp_path: (
        lambda: decode_message(encode_status(Status(1, 300, 2**40, 9))[:-1])),
    "iblt-short": lambda _tmp_path: (
        lambda: IBLT.deserialize(IBLT(24).serialize()[:5])),
    "state-crc-mismatch": _state_crc_mismatch,
}


@pytest.mark.parametrize("case", sorted(DAMAGED))
def test_damaged_input_raises_integrity_error(case, tmp_path):
    decode = DAMAGED[case](tmp_path)
    with pytest.raises(IntegrityError):
        decode()


@pytest.mark.parametrize("error, legacy", [
    (SnapshotIntegrityError, RuntimeError),
    (CheckpointCorruptError, RuntimeError),
    (WireError, RuntimeError),
    (RecordDecodeError, ValueError),
    (IBLTError, ValueError),
])
def test_decoder_errors_keep_their_legacy_base(error, legacy):
    assert issubclass(error, IntegrityError)
    assert issubclass(error, legacy)
