"""Tests for the persistent snapshot store (``repro.store``).

Layered like the module: record codec units, delta-log framing and
damage classification, checkpoint write/verify, then the store+boot
integration — a cold start from disk must serve exactly what a golden
single-process router serves, or refuse visibly.

The hypothesis property (``TestDeltaFraming``) is the log-format
contract: *any* sequence of image deltas — appends, overwrites,
truncations, -1 sentinels, beyond-64-bit spillover keys — survives
encode → append → replay → apply byte-for-byte.
"""

import bisect
import copy
import itertools
import json
import os
import random
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.image import HardwareImage, ImageDelta
from repro.faults.fileinject import (
    duplicate_final_record,
    flip_file_bit,
    torn_final_record,
    truncate_file,
)
from repro.router import ForwardingEngine
from repro.serve import RouterState, SnapshotRouter
from repro.store import (
    ANNOUNCE,
    PUBLISH,
    WITHDRAW,
    CheckpointCorruptError,
    CheckpointPolicy,
    DeltaLog,
    LogRecord,
    RecordDecodeError,
    RecoveryError,
    SnapshotStore,
    StoreError,
    apply_delta,
    cold_start,
    decode_delta,
    decode_record,
    encode_delta,
    encode_record,
    replay_log,
)
from repro.shard import codec
from repro.shard.codec import SnapshotIntegrityError, encode_image
from repro.store.checkpoint import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    render_checkpoint,
    write_image,
)
from repro.store.deltalog import scan_frames
from repro.store.store import checkpoint_path, list_generations, log_path
from repro.verify import apply_update
from repro.workloads import synthetic_table
from repro.workloads.traces import synthesize_trace


@pytest.fixture(autouse=True, scope="module")
def _isolated_registry():
    """Fresh metrics registry per module: store counters/histograms are
    registered once per process, and crash/recovery runs inflate values
    other modules' global-registry assertions depend on."""
    from repro.obs import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture()
def store_dir():
    directory = tempfile.mkdtemp(prefix="chz-test-store-")
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


def build_router(size=300, seed=21):
    table = synthetic_table(size, seed=seed)
    fib = ForwardingEngine.from_table(table)
    return table, SnapshotRouter(fib)


def churn(router, table, updates, seed=22, store=None):
    """Apply a deterministic trace; returns it for golden replay."""
    trace = synthesize_trace(table, updates, seed=seed)
    for op in trace:
        apply_update(router, op)
        if store is not None:
            store.maybe_checkpoint()
    return trace


def golden_replay(table, ops):
    router = SnapshotRouter(ForwardingEngine.from_table(table))
    for op in ops:
        apply_update(router, op)
    return router


def assert_identical(router_a, router_b, keys):
    """Same served answers and byte-identical hardware images."""
    assert router_a.lookup_many(keys) == router_b.lookup_many(keys)
    image_a = HardwareImage.snapshot(router_a.fib.engine)
    image_b = HardwareImage.snapshot(router_b.fib.engine)
    forward, backward = image_a.diff(image_b), image_b.diff(image_a)
    assert not forward.writes and not forward.deletions
    assert not backward.writes and not backward.deletions


class TestRecordCodec:
    def test_announce_round_trip(self):
        record = LogRecord(op=ANNOUNCE, seq=17, prefix_value=0x0A000000,
                           prefix_length=8, gateway="10.0.0.1",
                           interface="eth3")
        assert decode_record(encode_record(record)) == record

    def test_withdraw_round_trip(self):
        record = LogRecord(op=WITHDRAW, seq=2**40,
                           prefix_value=2**127 - 1, prefix_length=128)
        assert decode_record(encode_record(record)) == record

    def test_publish_marker_round_trip(self):
        record = LogRecord(op=PUBLISH, seq=5, generation=12)
        decoded = decode_record(encode_record(record))
        assert decoded == record
        assert not decoded.is_update

    def test_record_with_delta(self):
        delta = ImageDelta(
            writes={("subcell3", 0): 7, ("/filter", 4): -1,
                    ("/spillover_key", 1): 2**70 + 3},
            deletions=[("/result", 9)],
        )
        record = LogRecord(op=ANNOUNCE, seq=1, prefix_value=1,
                           prefix_length=32, gateway="g", interface="i",
                           delta=delta)
        decoded = decode_record(encode_record(record))
        assert decoded.delta.writes == delta.writes
        assert sorted(decoded.delta.deletions) == sorted(delta.deletions)

    def test_trailing_garbage_rejected(self):
        payload = encode_record(LogRecord(op=PUBLISH, seq=1, generation=2))
        with pytest.raises(RecordDecodeError):
            decode_record(payload + b"\x00")

    def test_truncated_payload_rejected(self):
        payload = encode_record(LogRecord(
            op=ANNOUNCE, seq=3, prefix_value=10, prefix_length=8,
            gateway="gw", interface="if"))
        with pytest.raises(RecordDecodeError):
            decode_record(payload[:-2])

    def test_unknown_op_rejected(self):
        with pytest.raises(RecordDecodeError):
            decode_record(b"\x09\x01")

    def test_apply_delta_gap_rejected(self):
        tables = {"t": [1, 2]}
        with pytest.raises(RecordDecodeError):
            apply_delta(tables, ImageDelta(writes={("t", 5): 9},
                                           deletions=[]))

    def test_apply_delta_truncates_then_writes(self):
        tables = {"t": [1, 2, 3, 4]}
        apply_delta(tables, ImageDelta(
            writes={("t", 1): 20, ("t", 2): 30},
            deletions=[("t", 2), ("t", 3)],
        ))
        assert tables["t"] == [1, 20, 30]


_TABLE_NAMES = ("subcell3", "/filter", "/spillover_key", "/dirty")
_WORDS = st.one_of(
    st.integers(min_value=-1, max_value=2**20),
    st.just(-1),
    # IPv6 spillover keys overflow 64 bits by design; the signed varint
    # must carry them losslessly.
    st.integers(min_value=2**64, max_value=2**80),
)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(_TABLE_NAMES),
        st.sampled_from(("append", "write", "truncate")),
        _WORDS,
        st.floats(min_value=0.0, max_value=0.999),
    ),
    min_size=1, max_size=40,
)


class TestDeltaFraming:
    """Satellite: the hypothesis round-trip property for the delta log."""

    @given(ops=_OPS)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_delta_sequences_replay_to_equal_state(self, ops):
        tables = {}
        deltas = []
        for name, kind, value, fraction in ops:
            column = tables.get(name, [])
            if kind == "append":
                delta = ImageDelta(writes={(name, len(column)): value},
                                   deletions=[])
            elif kind == "write" and column:
                index = int(fraction * len(column))
                delta = ImageDelta(writes={(name, index): value},
                                   deletions=[])
            elif kind == "truncate" and column:
                keep = int(fraction * len(column))
                delta = ImageDelta(
                    writes={},
                    deletions=[(name, addr)
                               for addr in range(keep, len(column))],
                )
            else:
                continue
            apply_delta(tables, delta)
            deltas.append(delta)

        directory = tempfile.mkdtemp(prefix="chz-prop-")
        try:
            path = os.path.join(directory, "delta-00000001.log")
            log = DeltaLog.create(path, generation=1, sync=False)
            for seq, delta in enumerate(deltas, start=1):
                # Codec-level round trip, independent of the log.
                decoded, _end = decode_delta(encode_delta(delta))
                assert decoded.writes == delta.writes
                assert sorted(decoded.deletions) == sorted(delta.deletions)
                log.append(encode_record(LogRecord(
                    op=ANNOUNCE, seq=seq, prefix_value=seq,
                    prefix_length=32, gateway="g", interface="i",
                    delta=delta,
                )))
            log.close()
            replay = replay_log(path, expected_generation=1)
            assert replay.clean
            assert len(replay.records) == len(deltas)
            replayed = {}
            for record in replay.records:
                apply_delta(replayed, record.delta)
            assert replayed == tables
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestDeltaLog:
    def _filled_log(self, directory, records=5):
        path = os.path.join(directory, "delta-00000001.log")
        log = DeltaLog.create(path, generation=1)
        for seq in range(1, records + 1):
            log.append(encode_record(LogRecord(
                op=ANNOUNCE, seq=seq, prefix_value=seq, prefix_length=24,
                gateway=f"10.0.0.{seq}", interface="eth0",
            )))
        log.close()
        return path

    def test_clean_replay(self, store_dir):
        path = self._filled_log(store_dir)
        replay = replay_log(path, expected_generation=1)
        assert replay.clean
        assert [record.seq for record in replay.records] == [1, 2, 3, 4, 5]
        assert replay.valid_length == os.path.getsize(path)

    def test_torn_tail_is_torn_not_corrupt(self, store_dir):
        path = self._filled_log(store_dir)
        torn_final_record(path)
        replay = replay_log(path, expected_generation=1)
        assert replay.status == "torn"
        assert [record.seq for record in replay.records] == [1, 2, 3, 4]
        # The valid prefix is exactly the first four frames.
        assert replay.valid_length == scan_frames(path)[-1][0] + \
            scan_frames(path)[-1][1]

    def test_mid_log_damage_is_corrupt_and_stops_replay(self, store_dir):
        path = self._filled_log(store_dir)
        offset, total = scan_frames(path)[2]
        flip_file_bit(path, offset + total // 2)
        replay = replay_log(path, expected_generation=1)
        assert replay.damaged
        assert [record.seq for record in replay.records] == [1, 2]

    def test_duplicate_final_record_skipped(self, store_dir):
        path = self._filled_log(store_dir)
        duplicate_final_record(path)
        replay = replay_log(path, expected_generation=1)
        assert replay.clean
        assert replay.duplicates_skipped == 1
        assert [record.seq for record in replay.records] == [1, 2, 3, 4, 5]

    def test_sequence_gap_is_corrupt(self, store_dir):
        path = os.path.join(store_dir, "delta-00000001.log")
        log = DeltaLog.create(path, generation=1)
        log.append(encode_record(LogRecord(
            op=ANNOUNCE, seq=1, prefix_value=1, prefix_length=8,
            gateway="g", interface="i")))
        log.append(encode_record(LogRecord(
            op=ANNOUNCE, seq=3, prefix_value=3, prefix_length=8,
            gateway="g", interface="i")))
        log.close()
        replay = replay_log(path, expected_generation=1)
        assert replay.status == "corrupt"
        assert "gap" in replay.detail

    def test_generation_mismatch_rejected(self, store_dir):
        path = self._filled_log(store_dir)
        replay = replay_log(path, expected_generation=9)
        assert replay.status == "bad-header"

    def test_open_append_truncates_torn_tail(self, store_dir):
        path = self._filled_log(store_dir)
        valid = replay_log(path).valid_length
        torn_final_record(path)
        torn_valid = replay_log(path).valid_length
        assert torn_valid < valid
        log = DeltaLog.open_append(path, 1, torn_valid)
        log.append(encode_record(LogRecord(
            op=ANNOUNCE, seq=5, prefix_value=50, prefix_length=16,
            gateway="g", interface="i")))
        log.close()
        replay = replay_log(path, expected_generation=1)
        assert replay.clean
        assert [record.seq for record in replay.records] == [1, 2, 3, 4, 5]


def numeric_leaves(node, path=()):
    """Paths to every int leaf of a parsed JSON tree."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        if isinstance(node, int) and not isinstance(node, bool):
            yield path
        return
    for key, child in children:
        yield from numeric_leaves(child, path + (key,))


def last_digit_offset(header, path):
    """Byte offset, within the header JSON, of a leaf's last digit.

    Everything before the leaf renders identically when the leaf is
    swapped for a marker string, so the marker's position is the
    leaf's position.
    """
    marked = copy.deepcopy(header)
    node = marked
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    node[path[-1]] = "@@leaf@@"
    rendered = json.dumps(marked, separators=(",", ":"))
    return rendered.index('"@@leaf@@"') + len(str(value)) - 1


def without_layout(monkeypatch):
    """Make the exporter write sub-cells without ``layout: flat``
    (the per-table layout older exporters wrote), checksums intact."""
    real = codec._flatten_cell

    def flatten_cell(*args):
        meta = real(*args)
        del meta["layout"]
        return meta

    monkeypatch.setattr(codec, "_flatten_cell", flatten_cell)


class TestCheckpoint:
    def _checkpointed(self, directory, size=300):
        _table, router = build_router(size=size)
        path = os.path.join(directory, "checkpoint-00000001.chz")
        image, healthy = router.persistence_cut(
            lambda snapshot, fib_blob: render_checkpoint(
                snapshot, generation=1, seq=0, blobs={"fib": fib_blob}))
        assert healthy
        write_image(path, image)
        return path, router

    def test_write_load_verify(self, store_dir):
        path, router = self._checkpointed(store_dir)
        assert not [name for name in os.listdir(store_dir)
                    if name.endswith(".tmp")]
        checkpoint = load_checkpoint(path)
        assert checkpoint.generation == 1
        assert checkpoint.seq == 0
        lookup = checkpoint.to_lookup()
        keys = np.arange(0, 2**32, 2**24, dtype=np.uint64)
        served = lookup.lookup_batch(keys)
        want = router.lookup_batch(keys)
        assert served.tolist() == want.tolist()
        checkpoint.close()

    def test_bit_flip_detected(self, store_dir):
        path, _router = self._checkpointed(store_dir)
        flip_file_bit(path, os.path.getsize(path) - 9, 4)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_header_flip_detected_not_typeerror(self, store_dir):
        # A flip inside the JSON header (e.g. a dtype string) must be
        # classified as corruption, never escape as TypeError/ValueError.
        path, _router = self._checkpointed(store_dir)
        with open(path, "rb") as handle:
            blob = handle.read(4096)
        offset = blob.find(b"uint64")
        assert offset > 0
        flip_file_bit(path, offset + 1, 2)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_header_digit_flips_refused(self, store_dir):
        """Flip bit 0 or 1 of the last digit of every numeric header
        field a reader trusts (the ``meta`` tree, ``width``,
        ``extra.seq``): each flip must be refused with the typed error.
        Before the header digest, most passed ``verify()`` and either
        served wrong answers or escaped as OverflowError/IndexError."""
        path, _router = self._checkpointed(store_dir, size=3_000)
        with open(path, "rb") as handle:
            image = handle.read()
        length = int.from_bytes(image[:8], "little")
        header = json.loads(image[8:8 + length])
        assert json.dumps(header, separators=(",", ":")).encode() \
            == image[8:8 + length]
        paths = [("width",), ("extra", "seq")] + [
            ("meta",) + leaf for leaf in numeric_leaves(header["meta"])]
        cells = len(header["meta"]["subcells"])
        assert sum(leaf[-1] == "base" for leaf in paths) == cells > 1
        flipped = os.path.join(store_dir, "flipped.chz")
        for leaf in paths:
            offset = 8 + last_digit_offset(header, leaf)
            for bit in (0, 1):
                with open(flipped, "wb") as handle:
                    handle.write(image)
                flip_file_bit(flipped, offset, bit)
                with pytest.raises(SnapshotIntegrityError):
                    checkpoint = load_checkpoint(flipped)
                    try:
                        checkpoint.to_lookup()
                    finally:
                        checkpoint.close()

    def test_every_table_bit_flip_refused(self, store_dir):
        """2,000 seeded single-bit flips inside the table bytes of a
        3,000-route image, FIB blob included: ``verify()`` refuses every
        one and names the table.  Folding the table digests through
        block checksums let about 0.5% of them through."""
        path, _router = self._checkpointed(store_dir, size=3_000)
        with open(path, "rb") as handle:
            image = bytearray(handle.read())
        buffer = memoryview(image)
        header, start = codec.parse_image_header(buffer, "flips",
                                                 magic=CHECKPOINT_MAGIC)
        reader = codec.SnapshotImage(buffer, header, start, "flips")
        reader.verify()
        tables = header["tables"]
        sizes = [np.dtype(entry["dtype"]).itemsize
                 * int(np.prod(entry["shape"])) for entry in tables]
        ends = list(itertools.accumulate(sizes))
        rng = random.Random(2006)
        passed = []
        for _ in range(2_000):
            position = rng.randrange(ends[-1])
            index = bisect.bisect_right(ends, position)
            offset = (start + tables[index]["offset"]
                      + position - (ends[index] - sizes[index]))
            bit = 1 << rng.randrange(8)
            image[offset] ^= bit
            try:
                reader.verify()
            except SnapshotIntegrityError as error:
                assert repr(tables[index]["name"]) in str(error)
            else:
                passed.append((tables[index]["name"], offset, bit))
            image[offset] ^= bit
        assert not passed, f"{len(passed)} of 2000 flips passed verify()"

    def test_non_flat_layout_refused_typed(self, store_dir, monkeypatch):
        without_layout(monkeypatch)
        path, _router = self._checkpointed(store_dir)
        monkeypatch.undo()
        checkpoint = load_checkpoint(path)  # the checksums hold
        with pytest.raises(SnapshotIntegrityError, match="layout"):
            checkpoint.to_lookup()
        checkpoint.close()

    def test_format_1_checkpoint_refused(self, store_dir):
        """A checkpoint of image format 1 (64-bit tables, 64-byte record
        rows) is refused with the typed error, never served."""
        _table, router = build_router()
        path = os.path.join(store_dir, "checkpoint-00000001.chz")
        image, healthy = router.persistence_cut(
            lambda snapshot, fib_blob: render_checkpoint(
                snapshot, generation=1, seq=0, blobs={"fib": fib_blob}))
        assert healthy
        old = bytearray(image)
        marker = CHECKPOINT_MAGIC.encode()
        assert CHECKPOINT_MAGIC.endswith("-v2")
        start = bytes(old).index(marker)
        old[start:start + len(marker)] = b"chisel-ckpt-v1"
        write_image(path, bytes(old))
        with pytest.raises(SnapshotIntegrityError, match="chisel-ckpt-v1"):
            load_checkpoint(path)

    def test_truncation_detected(self, store_dir):
        path, _router = self._checkpointed(store_dir)
        truncate_file(path, os.path.getsize(path) // 2)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_pickled_fib_blob_round_trips(self, store_dir):
        import pickle

        path, router = self._checkpointed(store_dir)
        checkpoint = load_checkpoint(path)
        fib = pickle.loads(checkpoint.blob("fib"))
        image_a = HardwareImage.snapshot(fib.engine)
        image_b = HardwareImage.snapshot(router.fib.engine)
        delta = image_a.diff(image_b)
        assert not delta.writes and not delta.deletions
        checkpoint.close()


class TestStoreIntegration:
    def test_cold_start_replays_to_golden(self, store_dir):
        table, router = build_router()
        store = SnapshotStore.create(
            store_dir, router,
            policy=CheckpointPolicy(every_records=10, retain=2))
        ops = churn(router, table, 33, store=store)
        assert store.seq == len([op for op in ops])
        store.close()

        result = cold_start(store_dir)
        assert result.report.boot == "replay"
        assert result.report.seq == store.seq
        golden = golden_replay(table, ops)
        keys = [int(key) for key in
                np.random.default_rng(3).integers(0, 2**32, size=500)]
        assert_identical(result.router, golden, keys)
        result.store.close()

    def test_recovery_survives_torn_tail(self, store_dir):
        table, router = build_router()
        store = SnapshotStore.create(
            store_dir, router,
            policy=CheckpointPolicy(every_records=50, retain=2))
        ops = churn(router, table, 12, store=store)
        total = store.seq
        store.close()
        torn_final_record(log_path(store_dir, store.generation))

        result = cold_start(store_dir)
        assert result.report.torn_tail
        assert result.report.seq == total - 1
        golden = golden_replay(table, ops[:-1])
        keys = [int(key) for key in
                np.random.default_rng(4).integers(0, 2**32, size=300)]
        assert_identical(result.router, golden, keys)
        result.store.close()

    def test_corrupt_newest_checkpoint_falls_back(self, store_dir):
        table, router = build_router()
        store = SnapshotStore.create(
            store_dir, router,
            policy=CheckpointPolicy(every_records=8, retain=3))
        ops = churn(router, table, 20, store=store)
        total = store.seq
        store.close()
        generations = list_generations(store_dir)
        assert len(generations) >= 2
        truncate_file(checkpoint_path(store_dir, generations[-1]), 64)

        result = cold_start(store_dir)
        assert result.report.fallbacks >= 1
        # Log chaining across generations still reaches the full tail.
        assert result.report.seq == total
        golden = golden_replay(table, ops)
        keys = [int(key) for key in
                np.random.default_rng(5).integers(0, 2**32, size=300)]
        assert_identical(result.router, golden, keys)
        result.store.close()

    def test_boot_checkpoint_preserves_seq_lineage(self, store_dir):
        """Regression: the checkpoint-on-boot cut must carry the
        recovered seq forward.  A reset-to-zero lineage made every
        post-boot record look like a stale duplicate when a later
        recovery fell back past the boot checkpoint — silent loss of
        acknowledged updates."""
        table, router = build_router()
        store = SnapshotStore.create(
            store_dir, router,
            policy=CheckpointPolicy(every_records=100, retain=3))
        ops = churn(router, table, 9, store=store)
        total = store.seq
        store.close()

        booted = cold_start(store_dir)
        assert booted.report.seq == total
        # The boot cut a fresh generation; its checkpoint must claim
        # the recovered seq, and post-boot records must chain onto it.
        assert booted.store.seq == total
        more = churn(booted.router, table, 7, seed=31, store=booted.store)
        grand_total = booted.store.seq
        # Not necessarily total + len(more): a withdraw of an absent
        # prefix is a no-op and correctly journals nothing.
        assert grand_total > total
        boot_generation = booted.store.generation
        booted.store.close()
        if booted.checkpoint is not None:
            booted.checkpoint.close()

        # Corrupt the boot checkpoint: recovery falls back to the
        # pre-boot generation and must chain the post-boot log records
        # as successors, not skip them as duplicates.
        truncate_file(checkpoint_path(store_dir, boot_generation), 64)
        result = cold_start(store_dir)
        assert result.report.fallbacks >= 1
        assert result.report.seq == grand_total
        golden = golden_replay(table, ops + more)
        keys = [int(key) for key in
                np.random.default_rng(6).integers(0, 2**32, size=300)]
        assert_identical(result.router, golden, keys)
        result.store.close()

    def test_all_checkpoints_corrupt_refuses(self, store_dir):
        table, router = build_router()
        store = SnapshotStore.create(store_dir, router)
        churn(router, table, 6, store=store)
        store.close()
        for generation in list_generations(store_dir):
            truncate_file(checkpoint_path(store_dir, generation), 16)
        with pytest.raises(RecoveryError):
            cold_start(store_dir, retries=1, backoff=0.0)

    def test_unservable_layout_takes_the_fallback_path(self, store_dir,
                                                      monkeypatch):
        """A checkpoint whose checksums hold but whose datapath cannot
        be rebuilt is refused like a corrupt one: RecoveryError without
        a bootstrap table, a recompile with one."""
        table, router = build_router()
        without_layout(monkeypatch)
        SnapshotStore.create(store_dir, router).close()
        monkeypatch.undo()
        with pytest.raises(RecoveryError, match="layout"):
            cold_start(store_dir, retries=1, backoff=0.0)
        result = cold_start(store_dir, retries=1, backoff=0.0,
                            bootstrap=table)
        assert result.report.boot == "recompile"
        assert any("layout" in reason for reason in result.report.rejected)
        result.store.close()

    def test_bootstrap_rebuild_when_store_unrecoverable(self, store_dir):
        table, router = build_router()
        store = SnapshotStore.create(store_dir, router)
        churn(router, table, 6, store=store)
        store.close()
        for generation in list_generations(store_dir):
            truncate_file(checkpoint_path(store_dir, generation), 16)
        result = cold_start(store_dir, retries=1, backoff=0.0,
                            bootstrap=table)
        assert result.report.boot == "recompile"
        # The bootstrap table is served correctly (golden = fresh build).
        fresh = SnapshotRouter(ForwardingEngine.from_table(table))
        keys = [int(key) for key in
                np.random.default_rng(6).integers(0, 2**32, size=300)]
        assert result.router.lookup_many(keys) == fresh.lookup_many(keys)
        result.store.close()

    def test_checkpoint_refused_while_degraded(self, store_dir):
        _table, router = build_router(size=80)
        store = SnapshotStore.create(store_dir, router)
        router._degrade("test-forced degrade")
        with pytest.raises(StoreError):
            store.checkpoint()
        store.close()

    def test_checkpoint_refused_when_the_cut_patch_fails(self, store_dir,
                                                         monkeypatch):
        """A repair made around the router leaves the image stale; the
        cut patches it in, and when that sub-cell compile fails the
        router degrades and the checkpoint is refused, not written
        from a half-patched image."""
        from repro.core.flatpath import FlatSubCellPlan
        from repro.faults import FaultInjector

        _table, router = build_router()
        store = SnapshotStore.create(store_dir, router)
        before = list_generations(store_dir)
        assert FaultInjector(seed=7).flip_table_bit(router.fib.engine)
        assert router.fib.engine.scrub().total_repaired  # a replan owed
        assert router._snapshot.stale

        def failing_compile(*args, **kwargs):
            raise RuntimeError("compile failed")

        monkeypatch.setattr(FlatSubCellPlan, "compile", failing_compile)
        with pytest.raises(StoreError, match="refused"):
            store.checkpoint()
        assert router.state is RouterState.DEGRADED
        assert list_generations(store_dir) == before
        store.close()

    def test_delta_capture_cross_check(self, store_dir):
        table, router = build_router(size=150)
        store = SnapshotStore.create(
            store_dir, router,
            policy=CheckpointPolicy(every_records=6, retain=2),
            capture_deltas=True)
        churn(router, table, 15, store=store)
        store.close()
        result = cold_start(store_dir, capture_deltas=True)
        assert result.report.deep_verified
        result.store.close()

    def test_recovered_store_keeps_accepting_updates(self, store_dir):
        table, router = build_router(size=150)
        store = SnapshotStore.create(
            store_dir, router,
            policy=CheckpointPolicy(every_records=6, retain=2))
        ops = churn(router, table, 9, store=store)
        store.close()

        result = cold_start(store_dir)
        more = churn(result.router, table, 7, seed=31, store=result.store)
        result.store.close()

        second = cold_start(store_dir)
        golden = golden_replay(table, ops + more)
        keys = [int(key) for key in
                np.random.default_rng(7).integers(0, 2**32, size=300)]
        assert_identical(second.router, golden, keys)
        second.store.close()


class TestOverlayFreeCheckpoints:
    """Checkpoints carry no overlay, and boots patch private pages."""

    def test_checkpoint_overlay_is_empty(self, store_dir):
        table, router = build_router()
        store = SnapshotStore.create(store_dir, router)
        churn(router, table, 20)
        store.checkpoint()
        store.close()
        checkpoint = load_checkpoint(
            checkpoint_path(store_dir, store.generation))
        assert "overlay_lengths" not in checkpoint.header["meta"]
        assert not [entry for entry in checkpoint.header["tables"]
                    if entry["name"].startswith("ov")]
        checkpoint.close()

    def test_cold_start_patches_private_pages(self, store_dir):
        """Tail replay patches the copy-on-write mapping: the file is
        untouched and the served tables stay views of the mapping."""
        import hashlib

        from repro.verify import image_differences

        table, router = build_router()
        store = SnapshotStore.create(
            store_dir, router, policy=CheckpointPolicy(every_records=0))
        ops = churn(router, table, 30)
        store.close()
        path = checkpoint_path(store_dir, store.generation)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        result = cold_start(store_dir, checkpoint_on_boot=False)
        assert result.report.updates_replayed == len(ops)
        served = result.router._snapshot
        assert result.checkpoint is not None
        assert all(not plan.filters.flags.owndata for plan in served._plans)
        assert image_differences(result.router) == []
        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest
        golden = golden_replay(table, ops)
        keys = [int(key) for key in
                np.random.default_rng(9).integers(0, 2**32, size=300)]
        assert result.router.lookup_many(keys) == golden.lookup_many(keys)
        result.store.close()

    def test_update_during_checkpoint_encode_cannot_tear(self, store_dir,
                                                         monkeypatch):
        """The encode holds the update lock: an update fired from inside
        it waits, and the file holds the pre-update image."""
        import pickle
        import threading

        from repro.store import checkpoint as checkpoint_module
        from repro.verify import image_matches_compile

        table, router = build_router()
        prefix, _hop = next(iter(table))
        free = 32 - prefix.length
        key = prefix.network_int() | ((1 << free) - 1 if free else 0)
        before = router.lookup_batch([key]).tolist()
        real_encode = checkpoint_module.encode_image
        updaters = []

        def encode_with_update(*args, **kwargs):
            updater = threading.Thread(target=router.withdraw,
                                       args=(prefix,))
            updater.start()
            updater.join(0.2)
            updaters.append((updater, updater.is_alive()))
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(checkpoint_module, "encode_image",
                            encode_with_update)
        path = checkpoint_path(store_dir, 1)
        image, healthy = router.persistence_cut(
            lambda snapshot, fib_blob: render_checkpoint(
                snapshot, 1, 0, blobs={"fib": fib_blob}))
        [(updater, blocked)] = updaters
        assert healthy and blocked  # the update waited for the lock
        write_image(path, image)
        updater.join(5)
        assert router.lookup_batch([key]).tolist() != before
        checkpoint = load_checkpoint(path)
        assert checkpoint.to_lookup().lookup_batch([key]).tolist() == before
        fib = pickle.loads(checkpoint.blob("fib"))
        assert fib.engine.lookup(key) == before[0]
        booted = SnapshotRouter(fib, initial_snapshot=checkpoint.to_lookup())
        assert image_matches_compile(booted)
        checkpoint.close()
