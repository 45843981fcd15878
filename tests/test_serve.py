"""Tests for the snapshot-serving layer (``repro.serve``).

The acceptance property: a ``SnapshotRouter`` interleaving batched
lookups with announce/withdraw churn never serves a stale withdrawn
route and never misses an announced route — the overlay covers the
whole recompile window.
"""

import random

import numpy as np
import pytest

from repro.analysis.report import format_metrics
from repro.core.batch import BatchLookup
from repro.router import ForwardingEngine, NextHopInfo
from repro.serve import RecompilePolicy, SnapshotRouter
from repro.verify import apply_update
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
        table, fib, router = build_router(
            table_size=1200, seed=12, max_overlay=24, max_age=1e9
        )
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
            router.maybe_recompile()
        # The small overlay cap forced snapshot swaps mid-trace, so the
        # run exercised serving windows both before and after swaps.
        assert router.metrics.snapshots_compiled > recompiles_before
        assert router.metrics.overlay_lookups > 0

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
        _table, fib, router = build_router(seed=21, max_overlay=10**6,
                                           max_age=1e9)
        router.announce("192.0.2.0/24", "10.0.0.1", "eth0")
        router.withdraw("192.0.2.0/24")
        assert router.overlay_size == 1  # same prefix twice: exact dict
        assert router.metrics.updates_since_snapshot == 2
        router.recompile()
        assert router.overlay_size == 0
        assert router.metrics.updates_since_snapshot == 0
        assert router.metrics.last_updates_absorbed == 2
        assert not router._snapshot.stale

    def test_policy_overlay_threshold(self):
        _table, fib, router = build_router(seed=22, max_overlay=4,
                                           max_age=1e9)
        compiled = router.metrics.snapshots_compiled
        for octet in range(4):
            router.announce(f"192.0.{octet}.0/24", "10.0.0.1", "eth0")
            router.maybe_recompile()
        assert router.metrics.snapshots_compiled == compiled + 1

    def test_policy_age_threshold_with_fake_clock(self):
        table = synthetic_table(300, seed=23)
        fib = ForwardingEngine.from_table(table)
        now = [0.0]
        router = SnapshotRouter(
            fib, RecompilePolicy(max_overlay=10**6, max_age=2.0),
            clock=lambda: now[0],
        )
        router.announce("192.0.2.0/24", "10.0.0.1", "eth0")
        assert not router.maybe_recompile()  # young snapshot
        now[0] = 5.0
        assert router.snapshot_age == pytest.approx(5.0)
        assert router.maybe_recompile()  # old + dirty
        now[0] = 20.0
        assert not router.maybe_recompile()  # old but nothing changed

    def test_background_recompiler_thread(self):
        import time

        _table, fib, router = build_router(seed=24, max_overlay=1,
                                           max_age=1e9)
        compiled = router.metrics.snapshots_compiled
        with router:
            router.announce("192.0.2.0/24", "10.0.0.1", "eth0")
            deadline = time.monotonic() + 5.0
            while (router.metrics.snapshots_compiled == compiled
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        assert router.metrics.snapshots_compiled > compiled
        assert router.overlay_size == 0
        assert router._thread is None  # stopped cleanly

    def test_lookups_while_background_thread_runs(self):
        table, fib, router = build_router(seed=25, max_overlay=8,
                                          max_age=0.01)
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
        for field in ("lookups_served", "batches_served", "overlay_lookups",
                      "updates_applied", "snapshots_compiled",
                      "last_recompile_seconds", "snapshot_age_seconds",
                      "overlay_size", "snapshot_stale", "routes",
                      "mean_updates_absorbed", "overlay_fraction"):
            assert field in payload
        assert payload["lookups_served"] == 100
        assert payload["updates_applied"] == 1
        assert payload["overlay_size"] == 1
        text = format_metrics(payload, title="serve metrics")
        assert "lookups_served" in text and "serve metrics" in text

    def test_overlay_fraction_counts_fallbacks(self):
        _table, fib, router = build_router(seed=32)
        router.announce("203.0.113.0/24", "10.0.0.9", "eth3")
        key = (203 << 24) | (0 << 16) | (113 << 8) | 5
        router.lookup_batch([key] * 10)
        assert router.metrics.overlay_lookups == 10
        assert router.metrics.overlay_fraction == 1.0

    def test_updates_absorbed_accounting(self):
        _table, fib, router = build_router(seed=33)
        for octet in range(6):
            router.announce(f"198.18.{octet}.0/24", "10.0.0.1", "eth0")
        router.recompile()
        for octet in range(4):
            router.announce(f"198.19.{octet}.0/24", "10.0.0.1", "eth0")
        router.recompile()
        metrics = router.metrics
        assert metrics.total_updates_absorbed == 10
        assert metrics.last_updates_absorbed == 4
        # Initial compile + 2 explicit swaps.
        assert metrics.snapshots_compiled == 3
        assert metrics.mean_updates_absorbed == pytest.approx(10 / 3)


class TestLockFreeRecompile:
    """The recompile path compiles outside the update lock and retries
    when churn lands mid-compile (the lock-stall fix)."""

    def test_retry_when_update_lands_mid_compile(self, monkeypatch):
        from repro.obs import get_registry
        from repro.serve import snapshot as snapshot_module

        _table, fib, router = build_router(table_size=300, seed=51)
        registry = get_registry()
        retries_before = registry.value("serve_recompile_retries_total")

        real_compile = snapshot_module.BatchLookup
        compiles = []

        def racing_compile(engine):
            built = real_compile(engine)
            compiles.append(True)
            if len(compiles) == 1:
                # An update lands while the (lock-free) compile runs: the
                # optimistic snapshot is torn and must be discarded.
                fib.announce("198.51.100.0/24", "10.0.0.7", "eth2")
            return built

        monkeypatch.setattr(snapshot_module, "BatchLookup", racing_compile)
        router.recompile()
        assert len(compiles) == 2, "discarded snapshot was not recompiled"
        assert (registry.value("serve_recompile_retries_total")
                - retries_before) == 1
        assert not router._snapshot.stale, (
            "the swapped snapshot must reflect the mid-compile update"
        )
        # And the served answer includes the route that landed mid-compile.
        key = (198 << 24) | (51 << 16) | (100 << 8) | 9
        assert router.lookup_many([key])[0] is not None

    def test_lock_hold_histogram_stays_microseconds(self):
        from repro.obs import get_registry

        _table, fib, router = build_router(table_size=2000, seed=52)
        rng = random.Random(52)
        hold = get_registry().get("serve_lock_hold_seconds")
        count_before = hold.count
        for octet in range(8):
            router.announce(f"198.18.{octet}.0/24", "10.0.0.1", "eth0")
        router.lookup_batch([rng.getrandbits(32) for _ in range(5000)])
        router.recompile()
        assert hold.count > count_before
        # The compile itself runs outside the lock, so even with the
        # recompile in the window no hold approaches the ~100ms compile
        # cost; 5ms is the ISSUE's p99 budget.
        assert hold.quantile(0.99) < 0.005


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
