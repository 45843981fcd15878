"""Churn-under-load serving benchmark (``repro.serve``).

The ROADMAP regime: heavy lookup traffic served while BGP updates churn
the tables.  A ``SnapshotRouter`` answers 20K-key batches from its
compiled image while a synthetic rrc-style trace announces/withdraws
routes between batches, each update patching the image in place.
Reported against the scalar datapath rate on identical keys (the
``bench_lookup_rate.py`` baseline); the metrics (updates applied,
sub-cell replans, lock holds) land in ``results/bench_serve.json``.
"""

import json
import random
import time

from repro.analysis import format_table
from repro.analysis.report import save_report
from repro.obs import get_registry
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.verify import apply_update, image_differences, keys_under
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
    router = SnapshotRouter(fib)
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
    # Correctness gate: served answers equal the live scalar path, and
    # the served image equals a fresh compile.
    router.verify_sample(
        keys_under(rng, 32, 500, [op.prefix for op in trace]))
    assert not image_differences(router)
    assert served_rate >= 10 * scalar_rate, (
        f"snapshot path {served_rate:,.0f}/s is not >=10x the scalar "
        f"path {scalar_rate:,.0f}/s"
    )


def test_serve_recompile_latency(benchmark):
    """Whole-image compile cost at the 100k scale: what a shard publish
    or a recovery pays (updates patch the image instead)."""
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
