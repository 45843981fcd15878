"""Degraded-mode serving: setup failures absorbed, trie fallback, recovery."""

import pytest

from repro.faults.inject import FaultInjector
from repro.router import ForwardingEngine
from repro.router.nexthop import NextHopInfo
from repro.serve import RecompilePolicy, RouterState, SnapshotRouter
from repro.workloads.synthetic import synthetic_table

TABLE_SIZE = 800


@pytest.fixture(autouse=True, scope="module")
def _isolated_registry():
    """Fresh metrics registry per module: fault/degrade runs record long
    lock holds and large counter values that must not leak into other
    modules' global-registry assertions (e.g. the serve p99 gate)."""
    from repro.obs import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)



@pytest.fixture
def rig():
    """A router on a fake clock, plus the injector driving it to failure."""
    table = synthetic_table(TABLE_SIZE, seed=4)
    fib = ForwardingEngine.from_table(table)
    clock = [100.0]
    router = SnapshotRouter(
        fib, RecompilePolicy(max_overlay=16, max_age=0.0),
        clock=lambda: clock[0], backoff_initial=2.0, backoff_max=16.0,
    )
    return router, fib, clock, FaultInjector(seed=4), table


def force_degrade(router, injector):
    """Drive the router into DEGRADED via an unabsorbable setup failure."""
    from repro.prefix.prefix import Prefix

    with injector.force_setup_failure(times=8) as delivered:
        for i in range(64):
            router.announce(f"198.18.{i}.0/24", "10.9.0.1", "eth7")
            if delivered[0]:
                break
    assert delivered[0] >= 1
    assert router.state is RouterState.DEGRADED
    return Prefix.from_string(f"198.18.{i}.0/24")


def test_single_setup_failure_is_absorbed_in_place(rig):
    router, fib, clock, injector, table = rig
    with injector.force_setup_failure(times=1) as delivered:
        for i in range(64):
            router.announce(f"198.18.{i}.0/24", "10.9.0.1", "eth7")
            if delivered[0]:
                break
    assert delivered[0] == 1
    assert router.state is RouterState.HEALTHY
    assert router.metrics.setup_failures_absorbed == 1
    # The absorbed announce still landed: the route resolves.
    answer = router.forward_batch([int(198) << 24 | 18 << 16 | i << 8 | 1])[0]
    assert answer == NextHopInfo("10.9.0.1", "eth7")


def test_unabsorbable_setup_failure_degrades_not_raises(rig):
    router, fib, clock, injector, table = rig
    force_degrade(router, injector)
    assert router.metrics.degraded_entered == 1
    assert "injected" in router.metrics.last_degraded_reason


def test_degraded_router_keeps_answering_correctly(rig):
    router, fib, clock, injector, table = rig
    healthy_answers = router.forward_batch([k for k in range(0, 2 ** 32,
                                                            2 ** 25)])
    force_degrade(router, injector)
    keys = [k for k in range(0, 2 ** 32, 2 ** 25)]
    degraded_answers = router.forward_batch(keys)
    assert degraded_answers == healthy_answers
    assert router.metrics.degraded_lookups == len(keys)


def test_degraded_updates_flow_through_the_fallback(rig):
    router, fib, clock, injector, table = rig
    force_degrade(router, injector)
    key = (203 << 24) | (7 << 16) | 9
    router.announce("203.7.0.0/16", "10.1.1.1", "eth1")
    assert router.forward_batch([key])[0] == NextHopInfo("10.1.1.1", "eth1")
    router.withdraw("203.7.0.0/16")
    answer = router.forward_batch([key])[0]
    assert answer != NextHopInfo("10.1.1.1", "eth1")
    assert router.metrics.degraded_updates >= 2


def test_degraded_refcounts_stay_balanced(rig):
    router, fib, clock, injector, table = rig
    force_degrade(router, injector)
    info = NextHopInfo("10.2.2.2", "eth2")
    router.announce("203.9.0.0/16", info.gateway, info.interface)
    hop_id = fib.next_hops.id_for(info)
    assert fib.next_hops.refcount(hop_id) == 1
    router.announce("203.10.0.0/16", info.gateway, info.interface)
    assert fib.next_hops.refcount(hop_id) == 2
    router.withdraw("203.9.0.0/16")
    router.withdraw("203.10.0.0/16")
    assert fib.next_hops.id_for(info) is None


def test_recovery_waits_for_backoff_then_returns_healthy(rig):
    router, fib, clock, injector, table = rig
    force_degrade(router, injector)
    assert router.maybe_recompile() is False
    assert router.state is RouterState.DEGRADED
    clock[0] += 2.0
    assert router.maybe_recompile() is True
    assert router.state is RouterState.HEALTHY
    assert router.metrics.recoveries == 1
    router.verify_sample(range(0, 2 ** 32, 2 ** 24))


def test_recovered_router_serves_routes_announced_while_degraded(rig):
    router, fib, clock, injector, table = rig
    force_degrade(router, injector)
    router.announce("203.11.0.0/16", "10.3.3.3", "eth3")
    clock[0] += 2.0
    assert router.maybe_recompile() is True
    key = (203 << 24) | (11 << 16) | 42
    assert router.forward_batch([key])[0] == NextHopInfo("10.3.3.3", "eth3")


def test_failed_recovery_backs_off_exponentially(rig):
    router, fib, clock, injector, table = rig
    force_degrade(router, injector)
    with injector.force_setup_failure(times=100):
        clock[0] += 2.0
        assert router.maybe_recompile() is False
        assert router.metrics.recovery_failures == 1
        # Backoff doubled: 2s is no longer enough.
        clock[0] += 2.0
        assert router.maybe_recompile() is False
        assert router.metrics.recovery_failures == 1
        clock[0] += 2.0
        assert router.maybe_recompile() is False
        assert router.metrics.recovery_failures == 2
    clock[0] += 8.0
    assert router.maybe_recompile() is True
    assert router.state is RouterState.HEALTHY


def test_scrub_uncorrectable_degrades_the_router(rig):
    router, fib, clock, injector, table = rig
    assert injector.corrupt_shadow_pointer(fib.engine) is not None
    report = router.scrub()
    assert report is not None and not report.healthy
    assert router.state is RouterState.DEGRADED
    assert "pointer" in router.metrics.last_degraded_reason
    # And it comes back: the trie rebuild does not inherit the corruption.
    clock[0] += 2.0
    assert router.maybe_recompile() is True
    assert router.scrub().clean


def test_scrub_repairs_keep_router_healthy(rig):
    router, fib, clock, injector, table = rig
    for _ in range(10):
        assert injector.flip_table_bit(fib.engine) is not None
    report = router.scrub()
    assert report.total_repaired >= 1
    assert router.state is RouterState.HEALTHY
    router.verify_sample(range(0, 2 ** 32, 2 ** 24))


def test_spillover_overflow_during_churn_is_contained(rig):
    router, fib, clock, injector, table = rig
    from repro.verify import apply_update
    from repro.workloads.traces import synthesize_trace

    trace = synthesize_trace(table, 200, seed=5)
    with injector.force_spillover_overflow(fib.engine):
        for op in trace:
            apply_update(router, op)
    # Contained: whatever happened, no exception escaped and the router
    # is either still healthy or visibly degraded — and recoverable.
    for _ in range(8):
        if router.state is RouterState.HEALTHY:
            break
        clock[0] += router._backoff
        router.maybe_recompile()
    assert router.state is RouterState.HEALTHY


def test_state_and_metrics_are_exposed(rig):
    router, fib, clock, injector, table = rig
    assert router.metrics_dict()["state"] == "healthy"
    force_degrade(router, injector)
    payload = router.metrics_dict()
    assert payload["state"] == "degraded"
    assert payload["degraded_entered"] == 1
