"""Tests for the snapshot-serving layer (``repro.serve``).

The acceptance property: a ``SnapshotRouter`` interleaving batched
lookups with announce/withdraw churn never serves a stale withdrawn
route and never misses an announced route — every update patches the
served image, which then equals a fresh compile of the live engine.
"""

import random

import numpy as np
import pytest

from repro.analysis.report import format_metrics
from repro.core.batch import BatchLookup
from repro.router import ForwardingEngine, NextHopInfo
from repro.serve import RecompilePolicy, SnapshotRouter
from repro.verify import apply_update, image_differences
from repro.workloads import synthetic_table
from repro.workloads.traces import synthesize_trace


def build_router(table_size=1500, seed=11, **policy_kwargs):
    table = synthetic_table(table_size, seed=seed)
    fib = ForwardingEngine.from_table(table)
    policy = RecompilePolicy(**policy_kwargs) if policy_kwargs else None
    return table, fib, SnapshotRouter(fib, policy)


def scalar_answers(fib, keys):
    lookup = fib.engine.lookup
    return [lookup(int(key)) for key in keys]


class TestServingCorrectness:
    def test_snapshot_matches_scalar_at_rest(self):
        _table, fib, router = build_router()
        rng = random.Random(1)
        keys = [rng.getrandbits(32) for _ in range(3000)]
        assert router.lookup_many(keys) == scalar_answers(fib, keys)

    def test_trace_driven_churn_under_load(self):
        """The acceptance test: trace-driven interleaving of lookups and
        updates, verified against the live scalar path at every step."""
        table, fib, router = build_router(table_size=1200, seed=12)
        trace = synthesize_trace(table, 400, seed=12)
        rng = random.Random(12)
        background = [rng.getrandbits(32) for _ in range(400)]
        recompiles_before = router.metrics.snapshots_compiled
        for start in range(0, len(trace), 8):
            window = trace[start:start + 8]
            targeted = []
            for op in window:
                prefix = op.prefix
                apply_update(router, op)
                free = 32 - prefix.length
                targeted.append(prefix.network_int()
                                | (rng.getrandbits(free) if free else 0))
            keys = background + targeted
            assert router.lookup_many(keys) == scalar_answers(fib, keys), \
                f"divergence in window starting at {start}"
            assert not image_differences(router)
            assert not router.maybe_recompile()
        # Patches alone kept the image current: no whole recompile ran,
        # and no key needed the fallback path.
        assert router.metrics.snapshots_compiled == recompiles_before
        assert router.metrics.degraded_lookups == 0
        assert "unlogged" not in router.metrics.replans

    def test_withdrawn_route_never_served(self):
        table, fib, router = build_router(seed=13)
        prefix = next(iter(table.prefixes()))
        free = 32 - prefix.length
        key = prefix.network_int() | ((1 << free) - 1 if free else 0)
        before = router.lookup_many([key])[0]
        router.withdraw(prefix)
        after = router.lookup_many([key])[0]
        assert after == fib.engine.lookup(key)
        assert after != before or fib.engine.lookup(key) == before

    def test_announced_route_visible_immediately(self):
        _table, fib, router = build_router(seed=14)
        router.announce("198.51.100.0/24", "203.0.113.99", "eth7")
        key = (198 << 24) | (51 << 16) | (100 << 8) | 42
        [info] = router.forward_batch([key])
        assert info == NextHopInfo("203.0.113.99", "eth7")

    def test_serving_across_purge_window(self):
        """Withdrawals that trip the engine's dirty purge mid-window must
        not desynchronize the snapshot."""
        table, fib, router = build_router(seed=15)
        fib.dirty_purge_threshold = 8  # purge aggressively
        rng = random.Random(15)
        keys = [rng.getrandbits(32) for _ in range(500)]
        for prefix in list(table.prefixes())[:60]:
            router.withdraw(prefix)
            assert router.lookup_many(keys[:50]) == scalar_answers(
                fib, keys[:50])
        assert fib.purges_run > 0
        assert router.lookup_many(keys) == scalar_answers(fib, keys)

    def test_verify_sample_detects_divergence(self):
        _table, fib, router = build_router(seed=16)
        rng = random.Random(16)
        keys = [rng.getrandbits(32) for _ in range(200)]
        assert router.verify_sample(keys) == len(keys)
        # Corrupt the snapshot's Result-Table copy: divergence must raise.
        hits = router.lookup_batch(keys)
        assert (hits != -1).any()
        for plan in router._snapshot._plans:
            plan.arena = plan.arena + 7
        with pytest.raises(AssertionError):
            router.verify_sample(keys)


class TestSnapshotLifecycle:
    def test_overlay_clears_on_recompile(self):
        """No overlay exists to clear: each update patches the image, and
        a recompile swaps in an image equal to the patched one."""
        _table, fib, router = build_router(seed=21)
        router.announce("192.0.2.0/24", "10.0.0.1", "eth0")
        router.withdraw("192.0.2.0/24")
        assert router.overlay_size == 0
        assert router.overlay_arrays() == []
        assert router.metrics.updates_applied == 2
        assert not router._snapshot.stale
        assert not image_differences(router)
        patched = router._snapshot
        router.recompile()
        assert router._snapshot is not patched
        assert not image_differences(router)

    def test_background_recompiler_thread(self):
        """The background thread is the recovery heartbeat: it starts,
        leaves a healthy router's image alone, and stops cleanly."""
        import time

        _table, fib, router = build_router(seed=24)
        compiled = router.metrics.snapshots_compiled
        key = (192 << 24) | (0 << 16) | (2 << 8) | 7
        with router:
            router.announce("192.0.2.0/24", "10.0.0.1", "eth0")
            assert router.lookup_many([key]) == [fib.engine.lookup(key)]
            time.sleep(0.2)
        assert router.metrics.snapshots_compiled == compiled
        assert router._thread is None  # stopped cleanly

    def test_lookups_while_background_thread_runs(self):
        table, fib, router = build_router(seed=25)
        rng = random.Random(25)
        prefixes = list(table.prefixes())
        keys = [rng.getrandbits(32) for _ in range(300)]
        with router:
            for _ in range(50):
                prefix = prefixes[rng.randrange(len(prefixes))]
                if rng.random() < 0.5:
                    router.withdraw(prefix)
                else:
                    router.announce(prefix, "10.1.2.3", "eth1")
                assert router.lookup_many(keys[:40]) == scalar_answers(
                    fib, keys[:40])


class TestMetrics:
    def test_metrics_dict_and_report(self):
        _table, fib, router = build_router(seed=31)
        rng = random.Random(31)
        router.announce("192.0.2.0/24", "10.0.0.1", "eth0")
        router.lookup_batch([rng.getrandbits(32) for _ in range(100)])
        payload = router.metrics_dict()
        for field in ("lookups_served", "batches_served",
                      "updates_applied", "read_retries", "replans",
                      "snapshots_compiled", "last_recompile_seconds",
                      "snapshot_age_seconds", "snapshot_stale", "routes"):
            assert field in payload
        for gone in ("overlay_size", "updates_since_snapshot",
                     "last_updates_absorbed", "total_updates_absorbed",
                     "mean_updates_absorbed", "max_overlay_size",
                     "overlay_lookups", "overlay_fraction"):
            assert gone not in payload
        assert payload["lookups_served"] == 100
        assert payload["updates_applied"] == 1
        assert payload["snapshot_stale"] is False
        text = format_metrics(payload, title="serve metrics")
        assert "lookups_served" in text and "serve metrics" in text

    def test_overlay_fraction_counts_fallbacks(self):
        """No key is bounced anywhere: the router answers a
        just-announced route from its patched image, and every key it
        serves counts once, none of them on the fallback path."""
        _table, fib, router = build_router(seed=32)
        router.announce("203.0.113.0/24", "10.0.0.9", "eth3")
        key = (203 << 24) | (0 << 16) | (113 << 8) | 5
        answers = router.lookup_batch([key] * 10)
        assert answers.tolist() == [fib.engine.lookup(key)] * 10
        router.metrics.record_batch(10)
        assert router.metrics.lookups_served == 20
        assert router.metrics.batches_served == 2
        assert router.metrics.degraded_lookups == 0

    def test_updates_absorbed_accounting(self):
        """Every update is absorbed by a patch; whole compiles happen only
        when asked for, and sub-cell replans are counted by reason."""
        _table, fib, router = build_router(seed=33)
        for octet in range(6):
            router.announce(f"198.18.{octet}.0/24", "10.0.0.1", "eth0")
        router.recompile()
        for octet in range(4):
            router.announce(f"198.19.{octet}.0/24", "10.0.0.1", "eth0")
        router.recompile()
        metrics = router.metrics
        assert metrics.updates_applied == 10
        # Initial compile + 2 explicit swaps.
        assert metrics.snapshots_compiled == 3
        assert sum(metrics.replans.values()) <= 10
        assert "unlogged" not in metrics.replans
        assert not image_differences(router)


class TestLockFreeRecompile:
    """Update-path lock holds stay microseconds; the rare whole compile
    holds the raw lock and is timed on its own histogram."""

    def test_lock_hold_histogram_stays_microseconds(self):
        from repro.obs import get_registry

        _table, fib, router = build_router(table_size=2000, seed=52)
        rng = random.Random(52)
        registry = get_registry()
        hold = registry.get("serve_lock_hold_seconds")
        count_before = hold.count
        for octet in range(8):
            router.announce(f"198.18.{octet}.0/24", "10.0.0.1", "eth0")
        router.lookup_batch([rng.getrandbits(32) for _ in range(5000)])
        assert hold.count > count_before
        # 5ms is the p99 budget serve-bench --smoke gates.
        assert hold.quantile(0.99) < 0.005
        compiles = registry.get("serve_recompile_compile_seconds").count
        holds = hold.count
        router.recompile()
        assert registry.get("serve_recompile_compile_seconds").count \
            == compiles + 1
        assert hold.count == holds


class TestBulkLoad:
    def test_from_table_matches_incremental(self):
        table = synthetic_table(200, seed=41)
        bulk = ForwardingEngine.from_table(table)
        assert len(bulk) == len(table)
        rng = random.Random(41)
        keys = [rng.getrandbits(32) for _ in range(500)]
        # Bulk-loaded decisions agree with a direct engine over the table.
        from repro.core import ChiselLPM
        reference = ChiselLPM.build(table)
        for key in keys:
            want = reference.lookup(key)
            got = bulk.engine.lookup(key)
            assert (got is None) == (want is None)
            if want is not None:
                assert bulk.next_hops.resolve(got) is not None

    def test_from_table_next_hop_refcounts(self):
        table = synthetic_table(150, seed=42)
        fib = ForwardingEngine.from_table(table)
        prefix = next(iter(table.prefixes()))
        info = fib.route_for(prefix)
        assert info is not None
        fib.withdraw(prefix)
        assert fib.route_for(prefix) is None
