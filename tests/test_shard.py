"""Tests for the multi-process sharded serving plane (``repro.shard``).

The acceptance properties:

* **differential**: a ``ShardCoordinator`` fleet answers exactly like the
  single-process ``SnapshotRouter`` it wraps, over churn, for every
  worker count;
* **fence**: a worker never serves a generation older than the one
  current at dispatch, worker-observed generations are monotone
  (hypothesis property over the control block), and retired segments are
  really gone;
* **crash recovery**: a killed worker is respawned and re-attaches the
  *current* generation, never a stale one, without dropping a batch;
* **publish safety**: a publish copies the router's served image under
  its update lock — an update or scrub fired mid-export waits for it, a
  write made around the router is patched in first, and a table fault
  behind the router's back never reaches a segment.
"""

import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector
from repro.router import ForwardingEngine
from repro.serve import RecompilePolicy, SnapshotRouter
from repro.core.batch import BatchLookup
from repro.shard import (
    ControlBlock,
    ControlBlockError,
    ShardCoordinator,
    ShardError,
    SharedSnapshot,
    SnapshotIntegrityError,
)
from repro.shard.codec import encode_image, table_digest
from repro.verify import Oracle, apply_update, image_differences
from repro.workloads import synthetic_table
from repro.workloads.traces import synthesize_trace


def build_router(table_size=1200, seed=21, **policy_kwargs):
    table = synthetic_table(table_size, seed=seed)
    fib = ForwardingEngine.from_table(table)
    policy = RecompilePolicy(**policy_kwargs) if policy_kwargs else None
    return table, fib, SnapshotRouter(fib, policy)


def churn(router, trace, start, count):
    for op in trace[start:start + count]:
        apply_update(router, op)


def random_keys(width, count, seed=0):
    rng = random.Random(seed)
    return np.array([rng.getrandbits(width) for _ in range(count)],
                    dtype=np.uint64)


class TestSnapshotCodec:
    def test_roundtrip_lookup_equality(self):
        table, _fib, router = build_router()
        keys = random_keys(table.width, 4000)
        segment = SharedSnapshot.export(router._snapshot, 7)
        try:
            attached = SharedSnapshot.attach(segment.name)
            assert attached.generation == 7
            assert np.array_equal(
                attached.to_lookup().lookup_batch(keys),
                router._snapshot.lookup_batch(keys),
            )
            attached.close()
        finally:
            segment.retire()

    def test_corruption_is_detected(self):
        _table, _fib, router = build_router()
        segment = SharedSnapshot.export(router._snapshot, 1)
        try:
            # Flip one payload byte behind the checksums' back.
            offset = segment._payload_start + 12345
            segment._shm.buf[offset] ^= 0xFF
            with pytest.raises(SnapshotIntegrityError):
                segment.verify()
            with pytest.raises(SnapshotIntegrityError):
                SharedSnapshot.attach(segment.name, verify=True)
        finally:
            segment.retire()

    def test_table_digest_is_position_sensitive(self):
        words = np.arange(16, dtype=np.uint64)
        swapped = words.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert table_digest(words) != table_digest(swapped)

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            SharedSnapshot.attach("chisel-no-such-segment")


class TestDifferentialSharding:
    # The ids keep the partition name the coordinator uses.
    @pytest.mark.parametrize("workers", [1, 2, 3],
                             ids=lambda workers: f"{workers}-round-robin")
    def test_sharded_equals_single_process_over_churn(self, workers):
        """The tentpole gate: every worker count, zero divergences from
        the single-process router while churn flows and generations swap
        underneath."""
        table, _fib, router = build_router(max_overlay=16, max_age=1e9)
        trace = synthesize_trace(table, 120, seed=22)
        keys = random_keys(table.width, 2500, seed=22)
        with ShardCoordinator(router, workers=workers) as coordinator:
            for round_index in range(6):
                churn(router, trace, round_index * 20, 20)
                sharded = coordinator.lookup_batch(keys)
                single = router.lookup_batch(keys)
                assert np.array_equal(sharded, single), (
                    f"{workers}w diverged on round {round_index}"
                )
                coordinator.maybe_publish()
            # Worker-observed generations are monotone per worker.
            for history in coordinator.generation_history.values():
                assert history == sorted(history)
            assert coordinator.generation >= 1

    def test_partitions_cover_batch_exactly_once(self):
        _table, _fib, router = build_router(table_size=600)
        keys = random_keys(32, 999, seed=3)
        with ShardCoordinator(router, workers=3) as coordinator:
            parts = coordinator._partition(keys)
            merged = np.sort(np.concatenate(parts))
            assert np.array_equal(merged, np.arange(len(keys)))


class TestGenerationFence:
    def test_publish_retires_previous_segment(self):
        table, _fib, router = build_router(max_overlay=1_000_000,
                                           max_age=1e9)
        trace = synthesize_trace(table, 30, seed=23)
        with ShardCoordinator(router, workers=2) as coordinator:
            first_name = coordinator._segment.name
            churn(router, trace, 0, 30)
            coordinator.publish()
            assert coordinator.generation == 2
            assert coordinator.worker_acks() == [2, 2]
            # The fence completed, so generation 1's segment is gone.
            with pytest.raises(FileNotFoundError):
                SharedSnapshot.attach(first_name)

    def test_worker_crash_recovery(self):
        """A killed worker is respawned mid-batch and the batch still
        completes, with the respawned worker on the current generation."""
        table, _fib, router = build_router(max_overlay=1_000_000,
                                           max_age=1e9)
        trace = synthesize_trace(table, 30, seed=24)
        keys = random_keys(table.width, 2000, seed=24)
        with ShardCoordinator(router, workers=2) as coordinator:
            assert np.array_equal(coordinator.lookup_batch(keys),
                                  router.lookup_batch(keys))
            churn(router, trace, 0, 30)
            coordinator.publish()
            victim = coordinator._processes[0]
            victim.terminate()
            victim.join(timeout=5)
            respawns_before = coordinator._obs_respawns.value
            sharded = coordinator.lookup_batch(keys)
            assert np.array_equal(sharded, router.lookup_batch(keys))
            assert coordinator._obs_respawns.value > respawns_before
            assert coordinator._processes[0].pid != victim.pid
            assert coordinator._processes[0].is_alive()
            # The respawned worker attached the *current* generation.
            deadline_acks = coordinator.worker_acks()
            assert all(ack == coordinator.generation
                       for ack in deadline_acks), deadline_acks

    def test_control_block_rejects_stale_generation(self):
        with ControlBlock.create(workers=2) as control:
            control.publish(3, "seg-3")
            with pytest.raises(ControlBlockError):
                control.publish(3, "seg-3-again")
            with pytest.raises(ControlBlockError):
                control.publish(2, "seg-2")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9),
                    min_size=1, max_size=8))
    def test_control_block_reads_are_monotone(self, increments):
        """Hypothesis property: generations observed through the seqlock
        read path are monotone and always paired with their own segment
        name, for any publish cadence."""
        with ControlBlock.create(workers=1) as control:
            observed = []
            generation = 0
            for step in increments:
                generation += step
                control.publish(generation, f"segment-{generation}")
                seen_generation, seen_name, _state = control.read()
                observed.append(seen_generation)
                assert seen_name == f"segment-{seen_generation}"
                control.ack(0, seen_generation)
                assert control.all_acked(seen_generation)
            assert observed == sorted(observed)
            assert observed[-1] == generation


def assert_segment_is_a_fresh_compile(coordinator, fib):
    """The published segment equals a fresh compile of the live engine:
    same tables, shapes, digests and metadata."""
    fresh = encode_image(BatchLookup(fib.engine), coordinator.generation)
    segment = SharedSnapshot.attach(coordinator._segment.name)
    try:
        assert segment.header == fresh.header
    finally:
        segment.close()


class TestPublishSafety:
    def test_table_fault_never_reaches_a_segment(self):
        """A bit flipped in an engine table behind the router's back is
        not in the served image, and a publish copies that image — so
        neither the router nor the segment serves the flip, before or
        after the scrub repairs it.  A publish that compiled the
        engine's tables instead served it from both."""
        table, fib, router = build_router(max_overlay=1_000_000,
                                          max_age=1e9)
        rng = random.Random(7)
        keys = [prefix.network_int()
                | rng.getrandbits(table.width - prefix.length)
                for prefix in table.prefixes()]
        oracle = Oracle(table)
        resolve = fib.next_hops.resolve
        injector = FaultInjector(seed=7)
        with ShardCoordinator(router, workers=1) as coordinator:
            for round_index in range(10):
                assert injector.flip_table_bit(
                    fib.engine, kind="regionptr") is not None
                coordinator.publish()
                assert not oracle.mismatches(
                    keys, router.forward_batch(keys)), (
                    f"round {round_index}: the router serves the flip")
                router.scrub()
                sharded = coordinator.lookup_batch(keys)
                assert np.array_equal(sharded, router.lookup_batch(keys))
                assert not oracle.mismatches(keys, [
                    None if hop < 0 else resolve(int(hop))
                    for hop in sharded
                ]), f"round {round_index}: the segment serves the flip"

    def test_publish_leaves_the_router_alone(self):
        """A publish copies the served image: the router keeps that very
        image, compiles nothing, and the segment equals a fresh compile."""
        table, fib, router = build_router(max_overlay=1_000_000,
                                          max_age=1e9)
        trace = synthesize_trace(table, 30, seed=28)
        with ShardCoordinator(router, workers=1) as coordinator:
            churn(router, trace, 0, 30)
            image = router._snapshot
            compiled = router.metrics.snapshots_compiled
            coordinator.publish()
            assert router._snapshot is image
            assert router.metrics.snapshots_compiled == compiled
            assert image_differences(router) == []
            assert_segment_is_a_fresh_compile(coordinator, fib)

    def test_write_made_around_the_router_is_patched_in(self):
        """Engine writes that bypassed the router leave its image stale;
        the publish's cut patches them in before the export."""
        table, fib, router = build_router(max_overlay=1_000_000,
                                          max_age=1e9)
        trace = synthesize_trace(table, 60, seed=29)
        with ShardCoordinator(router, workers=1) as coordinator:
            churn(router, trace, 0, 60)
            fib.engine.maintenance()
            assert router._snapshot.stale, "maintenance should write words"
            coordinator.publish()
            assert not router._snapshot.stale
            assert image_differences(router) == []
            assert_segment_is_a_fresh_compile(coordinator, fib)

    def test_updates_during_an_export_wait_for_the_publish(self,
                                                           monkeypatch):
        """The export runs under the router's update lock: an announce
        and a scrub fired from another thread mid-export block until the
        publish returns.  The segment holds the pre-update image, and the
        plane answers the update at once by bouncing its keys."""
        _table, fib, router = build_router(max_overlay=1_000_000,
                                           max_age=1e9)
        key = (198 << 24) | (51 << 16) | (100 << 8) | 9
        real_export = SharedSnapshot.export
        updaters = []

        def export_with_updates(lookup, generation, name=None):
            for target, args in (
                    (router.announce, ("198.51.100.0/24", "10.0.0.7",
                                       "eth2")),
                    (router.scrub, ())):
                updater = threading.Thread(target=target, args=args)
                updater.start()
                updater.join(0.2)
                updaters.append((updater, updater.is_alive()))
            return real_export(lookup, generation, name=name)

        with ShardCoordinator(router, workers=1) as coordinator:
            before = coordinator.lookup_batch([key]).tolist()
            monkeypatch.setattr(SharedSnapshot, "export", export_with_updates)
            coordinator.publish()
            monkeypatch.undo()
            assert [blocked for _updater, blocked in updaters] == [True, True]
            for updater, _blocked in updaters:
                updater.join(5)
                assert not updater.is_alive()
            segment = SharedSnapshot.attach(coordinator._segment.name)
            try:
                assert segment.to_lookup().lookup_batch([key]).tolist() \
                    == before
            finally:
                segment.close()
            after = coordinator.lookup_batch([key]).tolist()
            assert after == router.lookup_batch([key]).tolist() != before
            assert fib.next_hops.resolve(after[0]).gateway == "10.0.0.7"

    def test_bootstrap_refuses_a_degraded_router(self):
        """No trusted image, no first generation: construction fails."""
        _table, _fib, router = build_router(table_size=300)
        with router._lock:
            router._degrade("test: forced degradation")
        with pytest.raises(ShardError):
            ShardCoordinator(router, workers=1)

    def test_degraded_router_serves_through_fallback(self):
        """While the router is degraded the coordinator stops dispatching
        to workers and the answers still match the exact path."""
        table, _fib, router = build_router(max_overlay=1_000_000,
                                           max_age=1e9)
        keys = random_keys(table.width, 1500, seed=26)
        with ShardCoordinator(router, workers=2) as coordinator:
            baseline = coordinator.lookup_batch(keys)
            with router._lock:
                router._degrade("test: forced degradation")
            batches_before = coordinator._obs_batches.value
            degraded = coordinator.lookup_batch(keys)
            assert np.array_equal(degraded, baseline)
            # Served through the router fallback, not the shard fleet.
            assert coordinator._obs_batches.value == batches_before
