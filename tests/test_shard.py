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
* **publish safety** (the PR's bugfix): a scrub that repairs words while
  a generation export is in flight forces the optimistic re-check to
  discard that export — a half-repaired image is never published.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector
from repro.router import ForwardingEngine
from repro.serve import RecompilePolicy, SnapshotRouter
from repro.shard import (
    ControlBlock,
    ControlBlockError,
    ShardCoordinator,
    SharedSnapshot,
    SnapshotIntegrityError,
)
from repro.shard.codec import table_digest
from repro.verify import apply_update
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
        segment = SharedSnapshot.export(
            router._snapshot, router.overlay_arrays(), 7)
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

    def test_overlay_arrays_roundtrip(self):
        table, _fib, router = build_router(max_overlay=1_000_000,
                                           max_age=1e9)
        trace = synthesize_trace(table, 40, seed=21)
        churn(router, trace, 0, 40)
        overlay = router.overlay_arrays()
        assert overlay, "churn should have dirtied the overlay"
        segment = SharedSnapshot.export(router._snapshot, overlay, 1)
        try:
            attached = SharedSnapshot.attach(segment.name)
            decoded = attached.overlay_arrays()
            assert [length for length, _values in decoded] == \
                [length for length, _values in overlay]
            for (_l1, mine), (_l2, theirs) in zip(overlay, decoded):
                assert np.array_equal(np.asarray(mine, dtype=np.uint64),
                                      theirs)
            attached.close()
        finally:
            segment.retire()

    def test_corruption_is_detected(self):
        _table, _fib, router = build_router()
        segment = SharedSnapshot.export(router._snapshot, [], 1)
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


class TestPublishSafety:
    def test_scrub_during_export_never_publishes_half_repaired_image(self):
        """The bugfix regression: a scrub repairing words while the
        segment export is in flight bumps ``words_written``, so the
        optimistic re-check discards that export and retries; the
        generation that lands is compiled after the repair and matches
        the live engine exactly."""
        table, fib, router = build_router(max_overlay=1_000_000,
                                          max_age=1e9)
        trace = synthesize_trace(table, 20, seed=25)
        keys = random_keys(table.width, 3000, seed=25)
        injector = FaultInjector(seed=25)
        with ShardCoordinator(router, workers=1) as coordinator:
            churn(router, trace, 0, 20)
            fired = {"count": 0}

            def scrub_mid_export():
                if fired["count"]:
                    return
                fired["count"] += 1
                # A soft error lands in a hardware table and the scrubber
                # repairs it while the export is being cut.
                record = injector.flip_table_bit(fib.engine)
                assert record is not None
                report = fib.engine.scrub()
                assert report.repaired, "the injected fault must be repaired"

            coordinator._export_hook = scrub_mid_export
            discards_before = coordinator._obs_discards.value
            generation_before = coordinator.generation
            coordinator.publish()
            assert fired["count"] == 1
            assert coordinator.generation == generation_before + 1
            assert coordinator._obs_discards.value > discards_before, (
                "the mid-export scrub must force the optimistic re-check "
                "to discard the first export"
            )
            # The published segment is whole: checksums verify and its
            # answers match the live (repaired) engine exactly.
            attached = SharedSnapshot.attach(coordinator._segment.name,
                                             verify=True)
            assert np.array_equal(
                attached.to_lookup().lookup_batch(keys),
                router.lookup_batch(keys),
            )
            attached.close()

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
