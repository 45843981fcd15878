"""Churn-under-load serving benchmark (``repro.serve``).

The ROADMAP regime: heavy lookup traffic served while BGP updates churn
the tables.  A ``SnapshotRouter`` answers 20K-key batches from compiled
snapshots while a synthetic rrc-style trace announces/withdraws routes
between batches; the recompile policy swaps snapshots as the overlay
grows.  Reported against the scalar datapath rate on identical keys
(the ``bench_lookup_rate.py`` baseline); the metrics (snapshot age,
recompile latency, overlay size, updates absorbed) land in
``results/bench_serve.json``.
"""

import json
import random
import time

from repro.analysis import format_table
from repro.analysis.report import save_report
from repro.obs import get_registry
from repro.router import ForwardingEngine
from repro.serve import RecompilePolicy, SnapshotRouter
from repro.verify import apply_update, keys_under
from repro.workloads import synthetic_table

from .conftest import emit

TABLE_SIZE = 100_000
BATCH_SIZE = 20_000
CHURN_PER_BATCH = 20
ROUNDS = 25


def test_serve_churn_under_load(benchmark):
    from repro.workloads.traces import synthesize_trace

    table = synthetic_table(TABLE_SIZE, seed=2006)
    fib = ForwardingEngine.from_table(table)
    router = SnapshotRouter(fib, RecompilePolicy(max_overlay=256, max_age=5.0))
    rng = random.Random(2006)
    keys = [rng.getrandbits(32) for _ in range(BATCH_SIZE)]
    trace = synthesize_trace(table, CHURN_PER_BATCH * (ROUNDS + 5), seed=2006)

    # Scalar baseline: the same keys, one at a time, current tables.
    sample = keys[:2_000]
    scalar_lookup = fib.engine.lookup
    started = time.perf_counter()
    for key in sample:
        scalar_lookup(key)
    scalar_rate = len(sample) / (time.perf_counter() - started)

    position = [0]

    def serve_round():
        window = trace[position[0]:position[0] + CHURN_PER_BATCH]
        position[0] = (position[0] + CHURN_PER_BATCH) % len(trace)
        for op in window:
            apply_update(router, op)
        router.lookup_batch(keys)
        router.maybe_recompile()
        return BATCH_SIZE

    benchmark.pedantic(serve_round, rounds=ROUNDS, iterations=1)
    served_rate = BATCH_SIZE / benchmark.stats["mean"]

    payload = router.metrics_dict()
    payload.update({
        "table_size": len(table),
        "batch_size": BATCH_SIZE,
        "updates_per_batch": CHURN_PER_BATCH,
        "rounds": ROUNDS,
        "snapshot_klookups_per_sec": round(served_rate / 1000, 1),
        "scalar_klookups_per_sec": round(scalar_rate / 1000, 1),
        "speedup_vs_scalar": round(served_rate / scalar_rate, 1),
    })
    registry = get_registry()
    payload["registry"] = registry.to_dict(include_traces=False)
    lock_hold = registry.get("serve_lock_hold_seconds")
    if lock_hold is not None and lock_hold.count:
        payload["update_lock_hold_p99_ms"] = round(
            1000 * lock_hold.quantile(0.99), 3)
    save_report("bench_serve.json",
                json.dumps(payload, indent=2, sort_keys=True, default=str))
    emit("serve_churn_under_load.txt", format_table(
        [
            {"path": "scalar (bench_lookup_rate baseline)",
             "klookups_per_sec": round(scalar_rate / 1000, 1)},
            {"path": "snapshot router (under churn)",
             "klookups_per_sec": round(served_rate / 1000, 1)},
        ],
        title=f"serving throughput, {TABLE_SIZE} prefixes, "
              f"{CHURN_PER_BATCH} updates/batch",
    ))
    # Correctness gate, after the metrics are read (the overlay
    # re-answers keys under churned prefixes under the update lock):
    # served answers equal the live scalar path.
    router.verify_sample(
        keys_under(rng, 32, 500, [op.prefix for op in trace]))
    assert served_rate >= 10 * scalar_rate, (
        f"snapshot path {served_rate:,.0f}/s is not >=10x the scalar "
        f"path {scalar_rate:,.0f}/s"
    )


def test_serve_recompile_latency(benchmark):
    """Snapshot compile cost at the 100k scale: the swap-window length
    the overlay has to cover."""
    table = synthetic_table(TABLE_SIZE, seed=2007)
    fib = ForwardingEngine.from_table(table)
    router = SnapshotRouter(fib)

    def recompile():
        return router.recompile()

    benchmark(recompile)
    metrics = router.metrics
    emit("serve_recompile_latency.txt", format_table(
        [{
            "table_size": TABLE_SIZE,
            "mean_recompile_ms": round(
                1000 * metrics.total_recompile_seconds
                / metrics.snapshots_compiled, 2),
            "snapshots_compiled": metrics.snapshots_compiled,
        }],
        title="snapshot recompile latency",
    ))
