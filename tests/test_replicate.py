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
from repro.obs import MetricsRegistry, set_registry
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
from repro.replicate import coordinator as coordinator_module
from repro.replicate import wire
from repro.replicate.harness import HarnessError
from repro.replicate.replica import (
    _STATE_FILE,
    _ReplicaRuntime,
    decode_state,
    encode_state,
)
from repro.replicate.state import canonical_fib
from repro.serve import SnapshotRouter
from repro.store import CheckpointPolicy, SnapshotStore, cold_start
from repro.store.records import (
    ANNOUNCE,
    WITHDRAW,
    LogRecord,
    RecordDecodeError,
    decode_record,
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
    with pytest.raises(wire.WireError):
        # WELCOME has two modes, stream (0) and diverged (1).
        wire.decode_message(bytes([wire.MSG_WELCOME, 5, 2]))


class _WriteLog:
    """Wraps a socket and keeps a copy of each ``sendall``."""

    def __init__(self, sock):
        self.sock = sock
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))
        self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_connection_frames_over_socketpair():
    left_sock, right_sock = socket.socketpair()
    log = _WriteLog(left_sock)
    left = wire.Connection(log)
    right = wire.Connection(right_sock)
    try:
        for payload in MESSAGES:
            left.send(payload)
        for payload in MESSAGES:
            assert right.recv() == wire.decode_message(payload)
        assert right.bytes_received == left.bytes_sent
        # One send of many payloads is one write of the same bytes, and
        # reassembles into the same messages and byte counts.
        single = left.bytes_sent
        left.send(*MESSAGES)
        assert len(log.writes) == len(MESSAGES) + 1
        assert log.writes[-1] == b"".join(log.writes[:-1])
        for payload in MESSAGES:
            assert right.recv() == wire.decode_message(payload)
        assert left.bytes_sent == right.bytes_received == 2 * single
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


def _wrong_routes(data):
    """A valid file at the same seq that lost one route and gained a
    phantom: nothing refuses it, only the writer's checksum tells."""
    ledger, base_seq = decode_state(data, 32)
    ledger.remove(ledger.sorted_entries()[0].key)
    phantom = RouteEntry(0xC6336401, 32, "10.255.0.1", "eth9", base_seq)
    assert ledger.get(phantom.key) is None
    ledger.set_entry(phantom)
    return encode_state(ledger, base_seq)


#: What a replica may find in its state file: whether it is refused, and
#: the IBLT rounds that heal it.  A refused file boots from the table at
#: seq 0, which the writer's journal holds, so the stream catches it up.
STATE_FILES = {
    "intact": (lambda good: good, 0, 0),
    "pickled-int": (lambda good: pickle.dumps(5), 1, 0),
    "two-field-row": (lambda good: pickle.dumps((32, 0, [(0, 8)])), 1, 0),
    "truncated": (lambda good: good[:len(good) // 2], 1, 0),
    "garbage": (lambda good: random.Random(3).randbytes(len(good)), 1, 0),
    "flipped-body-byte": (_flip_a_gateway_byte, 1, 0),
    # Version 1 (records with a word-delta flag byte) is refused whole.
    "format-1": (lambda good: b"chzledg1" + good[8:], 1, 0),
    "wrong-routes": (_wrong_routes, 0, 1),
}


def _wait_converged(handle, writer, seconds=30):
    """Poll the replica until its seq and checksum equal the writer's."""
    deadline = time.monotonic() + seconds
    while True:
        status = handle.status()
        if (status["seq"], status["checksum"]) == (
                writer.seq, writer.ledger.checksum):
            return status
        assert time.monotonic() < deadline, status
        time.sleep(0.02)


@pytest.mark.parametrize("case", list(STATE_FILES))
def test_replica_boots_from_any_state_file_and_converges(tmp_path, case):
    """A damaged state file reads as no state: the replica boots from the
    table, counts the refusal, and catches up from the writer until its
    STATUS seq and checksum equal the writer's.  A valid file holding
    the wrong routes is not refused: one IBLT round heals it."""
    table = synthetic_table(120, seed=13)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    writer = ReplicationCoordinator(router, ledger, config)
    port = writer.listen()
    handle = ReplicaHandle(0, port, table, config, str(tmp_path),
                           status_interval=0.02, scrub_interval=60.0)
    damage, refused, recons = STATE_FILES[case]
    try:
        writer.start()
        for op in synthesize_trace(table, 30, seed=13):
            apply_update(router, op)
        assert writer.seq == 30
        state = damage(encode_state(writer.ledger, writer.seq))
        (tmp_path / _STATE_FILE).write_bytes(state)
        handle.spawn()
        status = _wait_converged(handle, writer)
        assert status["state_rejected"] == refused
        assert (writer.recon_sessions, writer.resyncs) == (recons, 0)
    finally:
        handle.stop()
        writer.stop()


def test_replica_from_an_earlier_writer_ahead_of_this_one_converges(
        tmp_path):
    """A state file an earlier writer left at seq 60, against a writer
    that restarted from the table and is at seq 10: no journal holds
    seq 60, so the replica reconciles, and the RECON_DONE the writer
    cannot verify at seq 60 takes the backstop resync."""
    table = synthetic_table(120, seed=15)
    config = _config(table)
    trace = synthesize_trace(table, 60, seed=15)
    fib, ledger = bootstrap(table, config)
    earlier = ReplicationCoordinator(SnapshotRouter(fib), ledger, config)
    earlier.start()
    for op in trace:
        apply_update(earlier.router, op)
    earlier.stop()
    (tmp_path / _STATE_FILE).write_bytes(
        encode_state(earlier.ledger, earlier.seq))
    assert earlier.seq == 60

    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    writer = ReplicationCoordinator(router, ledger, config)
    port = writer.listen()
    handle = ReplicaHandle(0, port, table, config, str(tmp_path),
                           status_interval=0.02, scrub_interval=60.0)
    try:
        writer.start()
        for op in synthesize_trace(table, 10, seed=16):
            apply_update(router, op)
        handle.spawn()
        status = _wait_converged(handle, writer)
        assert status["seq"] == 10 and status["state_rejected"] == 0
        assert writer.recon_sessions >= 1
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

    def traced(record, payload):
        seen.append((record.op, record.seq))
        inner(record, payload)

    router.set_journal(traced)
    try:
        _announce(router, 1)
        assert (seen, store.seq, writer.seq) == ([(ANNOUNCE, 1)], 1, 1)
    finally:
        writer.stop()
        store.close()


def test_writer_continues_from_the_router_seq_at_attach():
    """The writer's base seq is read when its hook attaches: built before
    its router applied 12 updates and started after them, it reports
    seq 12, streams from there, and journals seq 13 next."""
    table = synthetic_table(120, seed=24)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    writer = ReplicationCoordinator(router, ledger, config)

    def follow(record, _payload):
        ledger.apply(record)

    router.add_journal(follow)
    for octet in range(12):
        _announce(router, octet)
    router.remove_journal(follow)
    port = writer.listen()
    writer.start()
    replica = wire.Connection(
        socket.create_connection(("127.0.0.1", port), timeout=10.0))
    try:
        assert writer.seq == router.seq == 12
        replica.send(wire.encode_hello(wire.Hello(
            0, 12, ledger.checksum, len(ledger))))
        assert replica.recv() == (wire.MSG_WELCOME,
                                  wire.Welcome(12, wire.MODE_STREAM))
        _announce(router, 12)
        kind, body = replica.recv()
        assert kind == wire.MSG_RECORD and decode_record(body).seq == 13
    finally:
        replica.close()
        writer.stop()


@pytest.mark.parametrize("checkpoint_on_boot", [True, False])
def test_cold_start_leaves_one_seq(tmp_path, checkpoint_on_boot):
    """After a cold start, on both boot paths, the router, the store and
    the report agree on the seq, and a writer attached then journals the
    next one first."""
    table = synthetic_table(120, seed=27)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    directory = str(tmp_path / "store")
    store = SnapshotStore.create(
        directory, router, policy=CheckpointPolicy(every_records=8),
        sync=False)

    def follow(record, _payload):
        ledger.apply(record)

    router.add_journal(follow)
    for op in synthesize_trace(table, 30, seed=27):
        apply_update(router, op)
        store.maybe_checkpoint()
    store.close()
    boot = cold_start(directory, sync=False,
                      checkpoint_on_boot=checkpoint_on_boot)
    writer = ReplicationCoordinator(boot.router, ledger, config)
    try:
        report = boot.report
        assert report.updates_replayed > 0
        assert boot.router.seq == boot.store.seq == report.seq == router.seq
        writer.start()
        assert writer.seq == report.seq
        _announce(boot.router, 1)
        assert writer.seq == boot.store.seq == report.seq + 1
        assert writer.status()["journal_records"] == 1
    finally:
        writer.stop()
        boot.store.close()
        boot.checkpoint.close()


def test_journal_keeps_a_fixed_window(monkeypatch):
    """The writer's journal never holds more than ``_JOURNAL_RECORDS``
    records; dropping the oldest half moves no seq."""
    monkeypatch.setattr(coordinator_module, "_JOURNAL_RECORDS", 8)
    table = synthetic_table(120, seed=25)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    writer = ReplicationCoordinator(router, ledger, config)
    writer.start()
    try:
        held = []
        for octet in range(200):
            _announce(router, octet)
            held.append(writer.status()["journal_records"])
        assert max(held) <= 8 and min(held[8:]) >= 4
        assert writer.seq == router.seq == 200
    finally:
        writer.stop()


def test_replica_behind_the_window_reconciles(tmp_path, monkeypatch):
    """A replica killed after 20 updates and respawned after 100 more
    resumes at a seq an 8-record journal no longer holds: it reconciles
    by IBLT and converges with no resync."""
    monkeypatch.setattr(coordinator_module, "_JOURNAL_RECORDS", 8)
    table = synthetic_table(120, seed=26)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    writer = ReplicationCoordinator(router, ledger, config)
    port = writer.listen()
    handle = ReplicaHandle(0, port, table, config, str(tmp_path),
                           status_interval=0.02, scrub_interval=60.0)
    trace = synthesize_trace(table, 120, seed=26)
    try:
        writer.start()
        handle.spawn()
        deadline = time.monotonic() + 30
        while writer.status()["connected"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        for op in trace[:20]:
            apply_update(router, op)
        _wait_converged(handle, writer)
        handle.kill()
        recons = writer.recon_sessions
        for op in trace[20:]:
            apply_update(router, op)
        handle.spawn()
        _wait_converged(handle, writer)
        assert writer.recon_sessions > recons
        assert writer.resyncs == 0
    finally:
        handle.stop()
        writer.stop()


# -- streaming ---------------------------------------------------------------


def test_sender_ships_a_backlog_in_one_write():
    """100 updates journaled while a live session's send lock is held
    reach the replica end in seq order in at most 2 writes: the batch
    the sender drained before it blocked, then the rest in one drain."""
    table = synthetic_table(120, seed=21)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    previous = set_registry(MetricsRegistry())
    try:
        writer = ReplicationCoordinator(router, ledger, config)
    finally:
        registry = set_registry(previous)
    port = writer.listen()
    writer.start()
    replica = wire.Connection(
        socket.create_connection(("127.0.0.1", port), timeout=10.0))
    try:
        replica.send(wire.encode_hello(wire.Hello(
            0, 0, ledger.checksum, len(ledger))))
        kind, welcome = replica.recv()
        assert kind == wire.MSG_WELCOME
        assert welcome.mode == wire.MODE_STREAM
        deadline = time.monotonic() + 10
        while writer.status()["connected"] < 1:  # registered after WELCOME
            assert time.monotonic() < deadline
            time.sleep(0.005)
        conn = writer._sessions[0].conn
        log = _WriteLog(conn.sock)
        conn.sock = log
        with conn._send_lock:
            for octet in range(100):
                _announce(router, octet)
        records = []
        while len(records) < 100:
            kind, body = replica.recv()
            assert kind == wire.MSG_RECORD
            records.append(decode_record(body))
        assert [record.seq for record in records] == list(range(1, 101))
        writer.stop()  # joins the sender, so its counts are final
        assert 1 <= len(log.writes) <= 2
        assert conn.bytes_sent == replica.bytes_received
        assert conn.bytes_received == replica.bytes_sent
        assert registry.value("repl_records_streamed_total") == 100
        assert registry.value("repl_stream_writes_total") == len(log.writes)
    finally:
        replica.close()
        writer.stop()


@pytest.mark.parametrize("interval", [0.005, 0.02, 0.2])
def test_caught_up_replica_waits_at_most_one_status_interval(tmp_path,
                                                             interval):
    """A caught-up replica blocks in its receive until the next tick
    sends STATUS, so that wait is bounded by the status interval (and
    by 50 ms, which keeps harness commands answered promptly)."""
    table = synthetic_table(120, seed=22)
    config = _config(table)
    fib, ledger = bootstrap(table, config)
    writer = ReplicationCoordinator(SnapshotRouter(fib), ledger, config)
    writer.listen()
    writer.start()
    runtime = _ReplicaRuntime(0, writer.port, table, config, str(tmp_path),
                              status_interval=interval, scrub_interval=60.0)
    try:
        runtime.boot()
        assert runtime.connect(time.monotonic() + 10.0)
        wait = runtime.conn.sock.gettimeout()
        assert 0 < wait <= min(interval, 0.05)
    finally:
        runtime.drop_connection()
        runtime.log.close()
        writer.stop()


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
    assert report.stream_seconds > 0
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
