"""Tests for the multi-process sharded serving plane (``repro.shard``).

The acceptance properties:

* **differential**: a ``ShardCoordinator`` fleet answers exactly like the
  single-process ``SnapshotRouter`` it wraps, over churn, for every
  worker count — kept current by word bursts, with no key bounced;
* **fence**: a publish goes down each worker's pipe ahead of the
  batches cut against it, so a worker never serves a generation older
  than the one current at dispatch; worker acks never decrease, and
  retired segments are really gone;
* **crash recovery**: a killed worker — or one that dies halfway
  through a message — is respawned on the *current* generation, never a
  stale one, without dropping a batch; a wedged worker costs one failed
  batch, not every later one;
* **one plane per router**: a second plane over a router is refused
  before it makes a pipe, process or segment, and closing a plane
  leaves the router free for the next;
* **publish safety**: a publish copies the router's served image under
  its update lock — an update or scrub fired mid-export waits for it, a
  write made around the router is patched in first, and a table fault
  behind the router's back never reaches a segment.
"""

import gc
import multiprocessing
import os
import random
import signal
import struct
import threading

import numpy as np
import pytest

from repro.bloomier.backend import XorIndexTable
from repro.core.config import ChiselConfig
from repro.core.updates import ANNOUNCE, UpdateOp
from repro.faults import FaultInjector
from repro.prefix.prefix import Prefix
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.core.batch import BatchLookup
from repro.shard import (
    ShardCoordinator,
    ShardError,
    SharedSnapshot,
    SnapshotIntegrityError,
)
from repro.shard import coordinator as coordinator_module
from repro.shard.codec import encode_image, table_digest
from repro.shard.names import SEGMENT_PREFIX
from repro.verify import Oracle, apply_update, image_differences, keys_under
from repro.workloads import synthetic_table
from repro.workloads.traces import synthesize_trace


def build_router(table_size=1200, seed=21, backend="bloomier"):
    table = synthetic_table(table_size, seed=seed)
    config = ChiselConfig(width=table.width, index_backend=backend)
    fib = ForwardingEngine.from_table(table, config=config)
    return table, fib, SnapshotRouter(fib)


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
                SharedSnapshot.attach(segment.name)
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
        table, _fib, router = build_router()
        trace = synthesize_trace(table, 120, seed=22)
        keys = random_keys(table.width, 2500, seed=22)
        with ShardCoordinator(router, workers=workers) as coordinator:
            acks = []
            for round_index in range(6):
                churn(router, trace, round_index * 20, 20)
                sharded = coordinator.lookup_batch(keys)
                single = router.lookup_batch(keys)
                assert np.array_equal(sharded, single), (
                    f"{workers}w diverged on round {round_index}"
                )
                if round_index % 2:
                    coordinator.publish()
                acks.append(coordinator.worker_acks())
            # No worker ever attaches backwards, and the last publish's
            # fence saw every worker ack it.
            for before, after in zip(acks, acks[1:]):
                assert all(b <= a for b, a in zip(before, after)), acks
            assert acks[-1] == [coordinator.generation] * workers, acks
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
        table, _fib, router = build_router()
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
        table, _fib, router = build_router()
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

    def test_wedged_worker_is_replaced_after_the_timeout(self):
        """A stopped worker fails the batch it owes, is killed at the
        deadline, and the next batch respawns it (with a publish) and is
        exact.  Only dead workers used to be replaced, so every later
        batch failed too."""
        table, _fib, router = build_router()
        keys = random_keys(table.width, 2000, seed=25)
        with ShardCoordinator(router, workers=2,
                              batch_timeout=2) as coordinator:
            victim = coordinator._processes[1]
            try:
                assert np.array_equal(coordinator.lookup_batch(keys),
                                      router.lookup_batch(keys))
                respawns = coordinator._obs_respawns.value
                os.kill(victim.pid, signal.SIGSTOP)
                with pytest.raises(ShardError, match=r"workers \[1\]"):
                    coordinator.lookup_batch(keys)
                assert np.array_equal(coordinator.lookup_batch(keys),
                                      router.lookup_batch(keys))
                assert coordinator._obs_respawns.value == respawns + 1
            finally:
                if victim.is_alive():
                    os.kill(victim.pid, signal.SIGCONT)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched entry point reaches forked workers only")
    def test_worker_dying_mid_message_costs_one_respawn(self, monkeypatch):
        """Worker 0's first incarnation writes a frame header promising
        1 MB, 10 bytes of it, and exits.  Its pipe reads an error, not a
        hang, and no other worker's channel is touched: one respawn, and
        every batch is exact.  A worker killed inside the shared results
        queue's feeder used to hold its write lock, failing every later
        batch."""
        table, _fib, router = build_router()
        keys = random_keys(table.width, 2000, seed=27)
        worker_main = coordinator_module.worker_main

        def torn_first_message(generation, segment_name, pipe, parent_pid):
            if multiprocessing.current_process().name.endswith("-0"):
                os.write(pipe.fileno(),
                         struct.pack("!i", 1 << 20) + bytes(10))
                os._exit(1)
            return worker_main(generation, segment_name, pipe, parent_pid)

        monkeypatch.setattr(coordinator_module, "worker_main",
                            torn_first_message)
        with ShardCoordinator(router, workers=2) as coordinator:
            monkeypatch.undo()  # the respawn runs the real entry point
            respawns = coordinator._obs_respawns.value
            for _ in range(3):
                assert np.array_equal(coordinator.lookup_batch(keys),
                                      router.lookup_batch(keys))
            assert coordinator._obs_respawns.value == respawns + 1


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
        table, fib, router = build_router()
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
        table, fib, router = build_router()
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
        table, fib, router = build_router()
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
        plane answers the update at once, from the next batch's cut."""
        _table, fib, router = build_router()
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
        table, _fib, router = build_router()
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


def fresh_prefixes(router, rng, count, length=24):
    """``count`` prefixes of ``length`` bits the router does not hold."""
    found = []
    while len(found) < count:
        prefix = Prefix(rng.getrandbits(length), length, router.width)
        if (router.fib.engine.get_route(prefix) is None
                and prefix not in found):
            found.append(prefix)
    return found


def announce_fresh(router, oracle, rng, count, next_hop):
    """Announce ``count`` fresh /24s to the router and the oracle."""
    for prefix in fresh_prefixes(router, rng, count):
        op = UpdateOp(ANNOUNCE, prefix, next_hop)
        apply_update(router, op)
        oracle.apply(op)


def arena_sizes(router):
    return [len(cell.result.arena) for cell in router.fib.engine.subcells]


class TestWordBursts:
    """Bursts keep every worker equal to the router at each cut."""

    @pytest.mark.parametrize("backend", ["bloomier", "fuse"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_exact_answers_through_replans_and_growth(self, backend,
                                                      workers):
        """Every round the plane equals the router and the trie on keys
        under the changed prefixes, counts no batch on the router, and
        moves its generation only when a burst cannot carry the round:
        a forced re-setup publishes, and Result-Table growth and the
        trace's churn ride in bursts."""
        table, fib, router = build_router(table_size=1000, seed=41,
                                          backend=backend)
        rng = random.Random(41)
        trace = synthesize_trace(table, 100, seed=41)
        oracle = Oracle(table)
        resolve = fib.next_hops.resolve
        grown_by_burst = published = 0
        with ShardCoordinator(router, workers=workers) as coordinator:
            for round_index in range(12):
                replans = dict(router.metrics.replans)
                sizes = arena_sizes(router)
                ops = trace[round_index * 10:(round_index + 1) * 10]
                for op in ops:
                    apply_update(router, op)
                    oracle.apply(op)
                if round_index == 4:
                    # A singleton denied: the group is re-setup in place.
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(XorIndexTable, "try_insert",
                                      lambda self, key, value: None)
                        announce_fresh(router, oracle, rng, 1, 201)
                if round_index in (7, 8):
                    # New buckets: Index-Table slots and fresh regions.
                    announce_fresh(router, oracle, rng, 40, 202)
                owed = coordinator._tracker.resync
                replanned = router.metrics.replans != replans
                assert (owed is not None) == (replanned
                                              or owed == "overflow"), owed
                generation = coordinator.generation
                batches = router.metrics.batches_served
                keys = np.array(
                    keys_under(rng, table.width, 600, oracle.changed),
                    dtype=np.uint64)
                sharded = coordinator.lookup_batch(keys)
                assert router.metrics.batches_served == batches
                assert (coordinator.generation != generation) == (
                    owed is not None), (round_index, owed)
                published += owed is not None
                if owed is None and arena_sizes(router) != sizes:
                    grown_by_burst += 1
                assert np.array_equal(sharded, router.lookup_batch(keys)), (
                    f"{workers}w {backend} diverged on round {round_index}")
                assert not oracle.mismatches(keys, [
                    None if hop < 0 else resolve(int(hop))
                    for hop in sharded]), round_index
        assert router.metrics.replans.get("resetup", 0) > 0
        assert published > 0 and grown_by_burst > 0

    def test_respawned_worker_comes_back_on_a_fresh_publish(self):
        """Killed after bursts were shipped, a worker's successor would
        attach a segment without them; the respawn publishes, so the
        batch is still exact."""
        table, _fib, router = build_router(seed=42)
        rng = random.Random(42)
        keys = random_keys(table.width, 1500, seed=42)
        hops = ["10.7.0.1", "10.7.0.2", "10.7.0.3"]
        with ShardCoordinator(router, workers=2,
                              batch_timeout=20.0) as coordinator:
            for hop in hops:
                for prefix in rng.sample(list(table.prefixes()), 20):
                    router.announce(prefix, hop, "eth7")
                assert np.array_equal(coordinator.lookup_batch(keys),
                                      router.lookup_batch(keys))
            assert coordinator.generation == 1, "bursts, not publishes"
            victim = coordinator._processes[1]
            victim.terminate()
            victim.join(timeout=5)
            assert np.array_equal(coordinator.lookup_batch(keys),
                                  router.lookup_batch(keys))
            assert coordinator.generation == 2
            assert coordinator._processes[1].pid != victim.pid
            assert coordinator.worker_acks() == [2, 2]

    def test_burst_grows_a_result_table_past_the_segment(self):
        """New buckets allocate Result-Table entries past the segment's
        arena; the worker grows its copy, so their keys hit, with no
        publish and no respawn."""
        table, _fib, router = build_router(seed=43)
        rng = random.Random(43)
        with ShardCoordinator(router, workers=1) as coordinator:
            sizes = arena_sizes(router)
            prefixes = []
            while arena_sizes(router) == sizes:
                prefix = fresh_prefixes(router, rng, 1)[0]
                router.announce(prefix, "10.6.0.1", "eth6")
                prefixes.append(prefix)
            assert coordinator._tracker.resync is None
            respawns = coordinator._obs_respawns.value
            keys = keys_under(rng, table.width, 400, prefixes)
            assert np.array_equal(coordinator.lookup_batch(keys),
                                  router.lookup_batch(keys))
            assert coordinator.generation == 1
            assert coordinator._obs_respawns.value == respawns

    def test_burst_makes_a_bucket_live_under_an_unmarked_word(self):
        """A fresh bucket under a front word its plan never marked rides
        a burst: the worker marks the word itself and answers the
        bucket's keys, with no publish."""
        table, fib, router = build_router(seed=45)
        rng = random.Random(45)
        engine = fib.engine
        with ShardCoordinator(router, workers=1) as coordinator:
            front = router._snapshot._front
            for prefix in fresh_prefixes(router, rng, 200):
                position = engine.subcells.index(engine.subcell_for(prefix))
                word = prefix.network_int() >> (table.width - 16)
                if not int(front[word]) >> position & 1:
                    break
            else:
                pytest.fail("every fresh prefix's front word is marked")
            router.announce(prefix, "10.6.0.2", "eth6")
            assert coordinator._tracker.resync is None, "not a burst"
            assert int(router._snapshot._front[word]) >> position & 1
            keys = np.array([prefix.network_int()] + keys_under(
                rng, table.width, 200, [prefix]), dtype=np.uint64)
            sharded = coordinator.lookup_batch(keys)
            assert sharded[0] >= 0
            assert np.array_equal(sharded, router.lookup_batch(keys))
            assert coordinator.generation == 1

    def test_live_segments_verify_after_churn(self):
        """Workers write bursts into private copies: after churn, every
        live segment passes its digests (``attach`` verifies them)."""
        table, _fib, router = build_router(seed=44)
        trace = synthesize_trace(table, 80, seed=44)
        keys = random_keys(table.width, 1000, seed=44)
        with ShardCoordinator(router, workers=2) as coordinator:
            for round_index in range(8):
                churn(router, trace, round_index * 10, 10)
                assert np.array_equal(coordinator.lookup_batch(keys),
                                      router.lookup_batch(keys))
            assert coordinator.generation == 1, "the churn rode in bursts"
            for segment in [coordinator._segment,
                            *coordinator._stale_segments]:
                SharedSnapshot.attach(segment.name).close()

    def test_respawn_on_a_degraded_router_leaves_the_slice_to_it(
            self, monkeypatch):
        """A worker respawned just after the router degraded gets no
        publish, so its segment lacks the bursts: the slice it owed is
        answered by the router, never from that segment."""
        table, _fib, router = build_router(seed=45)
        rng = random.Random(45)
        changed = rng.sample(list(table.prefixes()), 40)
        for prefix in changed:
            router.announce(prefix, "10.5.0.1", "eth5")
        keys = keys_under(rng, table.width, 1500, changed)
        with ShardCoordinator(router, workers=2,
                              batch_timeout=20.0) as coordinator:
            for prefix in changed:
                router.announce(prefix, "10.5.0.2", "eth5")
            assert np.array_equal(coordinator.lookup_batch(keys),
                                  router.lookup_batch(keys))
            victim = coordinator._processes[1]
            victim.terminate()
            victim.join(timeout=5)
            respawn = coordinator._respawn_dead

            def degrade_then_respawn():
                with router._lock:
                    router._degrade("test: degraded before the respawn")
                return respawn()

            monkeypatch.setattr(coordinator, "_respawn_dead",
                                degrade_then_respawn)
            sharded = coordinator.lookup_batch(keys)
            monkeypatch.undo()
            assert coordinator.generation == 1
            assert np.array_equal(sharded, router.lookup_batch(keys))


def plane_segments():
    """This process's ``chz-*`` shared-memory segments."""
    prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    return sorted(name for name in os.listdir("/dev/shm")
                  if name.startswith(prefix))


class TestOnePlanePerRouter:
    def test_second_plane_is_refused_and_the_first_stays_exact(self):
        """A router feeds one word tracker.  A second plane over it
        would take the tracker's words from the first, which then serves
        stale answers; it is refused before it makes a pipe, process or
        segment.  The first plane stays exact, and once it closes, a
        plane built after it installs its own tracker and is exact."""
        table, _fib, router = build_router(table_size=600, seed=46)
        rng = random.Random(46)
        changed = rng.sample(list(table.prefixes()), 60)
        keys = keys_under(rng, table.width, 300, changed)
        with ShardCoordinator(router, workers=1) as first:
            segments = plane_segments()
            children = multiprocessing.active_children()
            with pytest.raises(RuntimeError, match="tracker"):
                ShardCoordinator(router, workers=1)
            gc.collect()  # the refused plane's teardown runs here
            assert plane_segments() == segments
            assert multiprocessing.active_children() == children
            for prefix in changed[:30]:
                router.announce(prefix, "10.4.0.1", "eth4")
            assert np.array_equal(first.lookup_batch(keys),
                                  router.lookup_batch(keys))
        with ShardCoordinator(router, workers=1) as second:
            for prefix in changed[30:]:
                router.announce(prefix, "10.4.0.2", "eth4")
            assert np.array_equal(second.lookup_batch(keys),
                                  router.lookup_batch(keys))
