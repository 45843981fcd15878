"""Replication-layer tests (``repro.replicate``).

Covers the wire codec (every message type roundtrips through the
framed connection), the route ledger (incremental XOR checksum, record
application, canonical rebuilds independent of arrival order), the
coordinator's journal/handshake behavior in-process, and one small
end-to-end run of the kill/corrupt/partition harness.
"""

import json
import os
import pickle
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.config import ChiselConfig
from repro.prefix.prefix import Prefix
from repro.replicate import (
    ReplicaHandle,
    ReplicateReport,
    ReplicationCoordinator,
    RouteEntry,
    RouteLedger,
    bootstrap,
    canonical_image,
    run_replicate,
)
from repro.replicate import wire
from repro.replicate.harness import HarnessError
from repro.replicate.replica import _STATE_FILE, decode_state, encode_state
from repro.replicate.state import canonical_fib
from repro.serve import SnapshotRouter
from repro.store import SnapshotStore
from repro.store.records import (
    ANNOUNCE,
    WITHDRAW,
    LogRecord,
    RecordDecodeError,
)
from repro.verify import apply_update
from repro.workloads.synthetic import synthetic_table
from repro.workloads.traces import synthesize_trace


def _config(table):
    return ChiselConfig(width=table.width, stride=4, seed=2006)


# -- wire codec --------------------------------------------------------------


RECORDS = (
    LogRecord(op=ANNOUNCE, seq=7, prefix_value=0x0A00, prefix_length=16,
              gateway="10.8.0.1", interface="eth0"),
    LogRecord(op=WITHDRAW, seq=8, prefix_value=0x0A01, prefix_length=16),
)

MESSAGES = [
    wire.encode_hello(wire.Hello(3, 120, 0xDEADBEEF, 950)),
    wire.encode_welcome(wire.Welcome(130, wire.MODE_DIVERGED)),
    wire.encode_record_msg(b"\x01payload"),
    wire.encode_status(wire.Status(3, 120, 0xFEEDFACE, 950)),
    wire.encode_status_ack(wire.StatusAck(False, 131)),
    wire.encode_recon_start(wire.ReconStart(120, 950, 0xABCD, b"digest")),
    wire.encode_recon_retry(wire.ReconRetry(48, 5)),
    wire.encode_recon_fixups(wire.ReconFixups(131, 0x1234, RECORDS,
                                              (17, 23))),
    wire.encode_recon_done(wire.ReconDone(131, 0x1234)),
    wire.encode_resync(wire.Resync(131, 0x1234, RECORDS)),
    wire.encode_bye(),
]


@pytest.mark.parametrize("payload", MESSAGES,
                         ids=lambda p: f"type{p[0]}")
def test_wire_codec_roundtrip(payload):
    kind, body = wire.decode_message(payload)
    assert kind == payload[0]
    if kind == wire.MSG_HELLO:
        assert body == wire.Hello(3, 120, 0xDEADBEEF, 950)
    elif kind == wire.MSG_WELCOME:
        assert body == wire.Welcome(130, wire.MODE_DIVERGED)
    elif kind == wire.MSG_RECORD:
        assert body == b"\x01payload"
    elif kind == wire.MSG_RECON_START:
        assert body.digest == b"digest" and body.count == 950
    elif kind == wire.MSG_RECON_FIXUPS:
        assert body.records == RECORDS and body.stale == (17, 23)
    elif kind == wire.MSG_RESYNC:
        assert body.records == RECORDS and body.writer_seq == 131


def test_wire_rejects_damage():
    with pytest.raises(wire.WireError):
        wire.decode_message(b"")
    with pytest.raises(wire.WireError):
        wire.decode_message(bytes([99]))
    with pytest.raises(wire.WireError):
        # HELLO truncated mid-varint.
        wire.decode_message(bytes([wire.MSG_HELLO, 0x80]))


def test_connection_frames_over_socketpair():
    left_sock, right_sock = socket.socketpair()
    left = wire.Connection(left_sock)
    right = wire.Connection(right_sock)
    try:
        for payload in MESSAGES:
            left.send(payload)
        for payload in MESSAGES:
            kind, _body = right.recv()
            assert kind == payload[0]
        assert right.bytes_received == left.bytes_sent
        # A frame split across many sends still reassembles.
        big = wire.encode_resync(wire.Resync(1, 2, RECORDS * 50))
        writer = threading.Thread(target=left.send, args=(big,))
        writer.start()
        kind, body = right.recv()
        writer.join()
        assert kind == wire.MSG_RESYNC and len(body.records) == 100
        left.close()
        with pytest.raises(wire.Disconnected):
            right.recv()
    finally:
        left.close()
        right.close()


def test_connection_rejects_oversized_frame():
    left_sock, right_sock = socket.socketpair()
    try:
        header = wire._FRAME.pack(wire.MAX_FRAME + 1, 0)
        left_sock.sendall(header)
        conn = wire.Connection(right_sock)
        with pytest.raises(wire.WireError):
            conn.recv()
    finally:
        left_sock.close()
        right_sock.close()


# -- route ledger ------------------------------------------------------------


def test_ledger_checksum_is_incremental_and_order_free():
    ledger = RouteLedger(32)
    entries = [
        RouteEntry(value=i, length=16, gateway=f"10.0.{i}.1",
                   interface=f"eth{i % 8}", seq=i + 1)
        for i in range(20)
    ]
    for entry in entries:
        ledger.set_entry(entry)
    recomputed = 0
    for entry in entries:
        recomputed ^= entry.fingerprint
    assert ledger.checksum == recomputed

    shuffled = RouteLedger(32)
    for entry in reversed(entries):
        shuffled.set_entry(entry)
    assert shuffled.checksum == ledger.checksum

    removed = entries[7]
    ledger.remove(removed.key)
    assert ledger.checksum == recomputed ^ removed.fingerprint
    # Replacing an entry swaps its fingerprint out of the XOR.
    replacement = RouteEntry(removed.value, removed.length, "10.9.9.9",
                             "eth7", 99)
    ledger.set_entry(replacement)
    assert ledger.checksum == (recomputed ^ removed.fingerprint
                               ^ replacement.fingerprint)


def test_ledger_applies_records_like_the_engine():
    table = synthetic_table(150, seed=3)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    announce = LogRecord(op=ANNOUNCE, seq=1, prefix_value=0b1010101010,
                         prefix_length=10, gateway="10.1.2.1",
                         interface="eth1")
    ledger.apply(announce)
    fib.announce(Prefix(announce.prefix_value, announce.prefix_length, 32),
                 announce.gateway, announce.interface)
    got = ledger.get((announce.prefix_value, announce.prefix_length))
    assert got is not None and got.gateway == "10.1.2.1" and got.seq == 1
    withdraw = LogRecord(op=WITHDRAW, seq=2,
                         prefix_value=announce.prefix_value,
                         prefix_length=announce.prefix_length)
    ledger.apply(withdraw)
    assert ledger.get((announce.prefix_value, announce.prefix_length)) is None


def test_canonical_image_is_arrival_order_independent():
    table = synthetic_table(200, seed=5)
    config = _config(table)
    _fib, ledger = bootstrap(table, config)
    entries = list(ledger)

    rebuilt = RouteLedger(32)
    for entry in reversed(entries):
        rebuilt.set_entry(entry)
    first = canonical_image(ledger, config)
    second = canonical_image(rebuilt, config)
    assert first.diff(second).word_count == 0

    # The canonical engine answers like any engine holding that set.
    fib = canonical_fib(ledger, config)
    for entry in entries[:20]:
        key = entry.value << (32 - entry.length)
        info = fib.forward(key)
        assert info is not None

    # And a changed set produces a different image.
    rebuilt.remove(entries[0].key)
    third = canonical_image(rebuilt, config)
    assert first.diff(third).word_count > 0


def test_ledger_record_roundtrip():
    table = synthetic_table(120, seed=9)
    _fib, ledger = bootstrap(table, _config(table))
    restored = RouteLedger.from_records(32, ledger.to_records())
    assert restored.checksum == ledger.checksum
    assert len(restored) == len(ledger)
    stored, base_seq = decode_state(encode_state(ledger, 41), 32)
    assert (stored.checksum, len(stored), base_seq) == (
        ledger.checksum, len(ledger), 41)
    with pytest.raises(RecordDecodeError):
        decode_state(encode_state(ledger, 41), 128)  # another width


# -- replica state on disk ---------------------------------------------------


def _flip_a_gateway_byte(data):
    """One flipped body byte that still parses: only the CRC sees it."""
    position = data.index(b"10.", 24) + 3  # a digit of the first gateway
    return data[:position] + bytes([data[position] ^ 0x01]) \
        + data[position + 1:]


#: What a replica may find in its state file, and whether it is refused.
STATE_FILES = {
    "intact": (lambda good: good, 0),
    "pickled-int": (lambda good: pickle.dumps(5), 1),
    "two-field-row": (lambda good: pickle.dumps((32, 0, [(0, 8)])), 1),
    "truncated": (lambda good: good[:len(good) // 2], 1),
    "garbage": (lambda good: random.Random(3).randbytes(len(good)), 1),
    "flipped-body-byte": (_flip_a_gateway_byte, 1),
    # Version 1 (records with a word-delta flag byte) is refused whole.
    "format-1": (lambda good: b"chzledg1" + good[8:], 1),
}


@pytest.mark.parametrize("case", list(STATE_FILES))
def test_replica_boots_from_any_state_file_and_converges(tmp_path, case):
    """A damaged state file reads as no state: the replica boots from the
    table, counts the refusal, and catches up from the writer until its
    STATUS seq and checksum equal the writer's."""
    table = synthetic_table(120, seed=13)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    writer = ReplicationCoordinator(SnapshotRouter(fib), ledger, config)
    port = writer.listen()
    handle = ReplicaHandle(0, port, table, config, str(tmp_path),
                           status_interval=0.02, scrub_interval=60.0)
    damage, refused = STATE_FILES[case]
    try:
        for op in synthesize_trace(table, 30, seed=13):
            apply_update(writer, op)
        state = damage(encode_state(writer.ledger, writer.seq))
        (tmp_path / _STATE_FILE).write_bytes(state)
        handle.spawn()
        writer.start()
        deadline = time.monotonic() + 30
        while True:
            status = handle.status()
            if (status["seq"], status["checksum"]) == (
                    writer.seq, writer.ledger.checksum):
                break
            assert time.monotonic() < deadline, status
            time.sleep(0.02)
        assert status["state_rejected"] == refused
    finally:
        handle.stop()
        writer.stop()


def test_replica_death_during_a_command_is_named(tmp_path):
    """A replica that dies owing a reply is named dead as soon as its
    pipe reads EOF, not after the 30 s command timeout.  Stopped first,
    so the STATUS cannot be answered before the kill."""
    table = synthetic_table(120, seed=14)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    writer = ReplicationCoordinator(SnapshotRouter(fib), ledger, config)
    port = writer.listen()
    handle = ReplicaHandle(0, port, table, config, str(tmp_path),
                           status_interval=0.02, scrub_interval=60.0)
    try:
        handle.spawn()
        writer.start()
        handle.status()  # booted and answering
        pid = handle.process.pid
        os.kill(pid, signal.SIGSTOP)
        killer = threading.Timer(0.5, os.kill, (pid, signal.SIGKILL))
        killer.start()
        started = time.monotonic()
        with pytest.raises(HarnessError, match="died during status"):
            handle.status()
        assert time.monotonic() - started < 5.0
        killer.join()
    finally:
        handle.stop()
        writer.stop()


# -- journal hooks -----------------------------------------------------------


def _journaled_pair(tmp_path, seed):
    """A router journaled by a store and a started replication writer."""
    table = synthetic_table(120, seed=seed)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    store = SnapshotStore.create(str(tmp_path / "store"), router,
                                 sync=False)
    writer = ReplicationCoordinator(router, ledger, config)
    writer.start()
    return table, router, store, writer


def _announce(router, octet):
    router.announce(f"198.18.{octet}.0/24", "10.9.9.1", "eth9")


def test_store_close_leaves_replication_journaling(tmp_path):
    """Closing the store detaches its hook only: the writer's ledger
    keeps taking every update, and stopping the writer afterwards
    leaves no hook behind (a closed store's would raise)."""
    _table, router, store, writer = _journaled_pair(tmp_path, seed=17)
    try:
        _announce(router, 1)
        assert (store.seq, writer.seq) == (1, 1)
        store.close()
        checksum = writer.ledger.checksum
        _announce(router, 2)
        assert (store.seq, writer.seq) == (1, 2)
        assert writer.ledger.checksum != checksum
    finally:
        writer.stop()
    _announce(router, 3)
    assert router.journal is None
    assert writer.seq == 2


def test_replication_stop_leaves_the_store_journaling(tmp_path):
    """The other order: stopping the writer first keeps the store's
    hook, and closing the store then clears the last one."""
    _table, router, store, writer = _journaled_pair(tmp_path, seed=18)
    _announce(router, 1)
    writer.stop()
    _announce(router, 2)
    assert (store.seq, writer.seq) == (2, 1)
    store.close()
    _announce(router, 3)
    assert router.journal is None
    assert store.seq == 2


def test_journal_wrapper_calls_every_hook(tmp_path):
    """``journal`` reads the installed hooks as one callable, so a
    wrapper installed with ``set_journal`` (a tracing span, say) calls
    them all."""
    _table, router, store, writer = _journaled_pair(tmp_path, seed=19)
    seen = []
    inner = router.journal

    def traced(*record):
        seen.append(record[0])
        inner(*record)

    router.set_journal(traced)
    try:
        _announce(router, 1)
        assert (seen, store.seq, writer.seq) == (["announce"], 1, 1)
    finally:
        writer.stop()
        store.close()


# -- end to end --------------------------------------------------------------


def test_replicate_harness_end_to_end(tmp_path):
    """A miniature kill/corrupt/partition run must pass every gate."""
    table = synthetic_table(250, seed=11)
    report = run_replicate(
        table, _config(table), replicas=2, churn=60, catchup_k=10,
        probes=64, seed=11, workdir=str(tmp_path))
    assert report.failures == []
    assert report.converged_ok == 1.0
    assert report.divergent_answers == 0
    assert report.image_diff_words == 0
    assert report.recon_sessions >= 1 and report.resyncs == 0
    assert report.scrub_repaired >= 1
    assert 0 < report.catchup_bytes_k1 < report.checkpoint_bytes / 2
    payload = report.to_dict()
    assert payload["ok"] is True
    json.dumps(payload)  # must stay JSON-serializable for save_report


def test_replicate_cli_smoke_json():
    """The CI entry point: one tiny run through the real CLI."""
    import os

    import repro

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "replicate", "--smoke",
         "--json"],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    assert payload["traffic_advantage"] >= 2.0
    assert payload["converged_ok"] == 1.0


def test_report_failure_shape():
    report = ReplicateReport(failures=["x"])
    assert not report.ok
    assert report.to_dict()["ok"] is False
