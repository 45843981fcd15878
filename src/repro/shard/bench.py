"""Shard scaling bench: aggregate throughput at 1/2/4/8 workers.

Shared by ``chisel-repro shard-bench`` and ``benchmarks/bench_shard.py``.
Each worker-count configuration gets a fresh router over the same seeded
table, serves the same churn-under-load workload the serve bench uses,
and after timing is checked on keys half under the churned prefixes:
against the single-process router it wraps, and against the
:class:`~repro.verify.Oracle` trie.  A divergence or a wrong answer
fails the bench.

Scaling expectations are hardware-dependent: the ≥2× aggregate gate at
4 workers only makes sense with ≥4 cores, so the report carries a
``scaling_gate_active`` flag (true on the CI runners, false on e.g. a
single-vCPU dev box) and callers gate on it.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional, Sequence, cast

import numpy as np

from ..core import ChiselConfig
from ..core.updates import UpdateOp
from ..prefix.table import RoutingTable
from ..router import ForwardingEngine
from ..serve import RecompilePolicy, SnapshotRouter
from ..verify import Oracle, apply_update, keys_under
from ..workloads.synthetic import synthetic_table
from ..workloads.traces import synthesize_trace
from .coordinator import ShardCoordinator

#: Aggregate speedup the 4-worker configuration must reach when the
#: host has enough cores to make the question meaningful.
SCALING_GATE_WORKERS = 4
SCALING_GATE_MIN_SPEEDUP = 2.0
#: With the gate inactive (too few cores) the shard plane must still
#: clear a sanity floor: IPC overhead may cost throughput, but an
#: order-of-magnitude collapse is a bug, not an artifact.
SANITY_MIN_SPEEDUP = 0.2


def scaling_gate_active() -> bool:
    """Whether the host has enough cores for the 4-worker 2× gate."""
    return (os.cpu_count() or 1) >= SCALING_GATE_WORKERS


def _bench_one(worker_count: int, table: RoutingTable,
               trace: List[UpdateOp], oracle: Oracle, batches: int,
               batch_size: int, churn: int, seed: int, repeats: int = 3,
               config: Optional[ChiselConfig] = None) -> Dict[str, object]:
    fib = ForwardingEngine.from_table(table, config=config)
    router = SnapshotRouter(fib, RecompilePolicy(max_overlay=64))
    rng = random.Random(seed)
    keys = np.array(
        [rng.getrandbits(table.width) for _ in range(batch_size)],
        dtype=np.uint64,
    )
    with ShardCoordinator(router, workers=worker_count) as coordinator:
        # Warm-up: first dispatch pays worker attach + fork costs.
        coordinator.lookup_batch(keys[: min(256, batch_size)])
        # Best-of-N timing: the smoke sections are short enough that a
        # scheduler hiccup on a busy CI runner can swallow 30%+ of one
        # pass, so the floor — not a single sample — is the measurement
        # (same approach as the metrics overhead smoke).
        position = 0
        elapsed = float("inf")
        for _repeat in range(repeats):
            started = time.perf_counter()
            for _ in range(batches):
                for op in trace[position:position + churn]:
                    apply_update(router, op)
                position += churn
                coordinator.lookup_batch(keys)
                coordinator.maybe_publish()
            elapsed = min(elapsed, time.perf_counter() - started)
        # Differential gates (outside the timed loop): the sharded plane
        # must answer exactly like the single-process router it wraps,
        # and both like the trie.
        check = np.array(
            keys_under(rng, table.width, batch_size, oracle.changed),
            dtype=np.uint64)
        sharded = coordinator.lookup_batch(check)
        single = router.lookup_batch(check)
        divergences = int(np.count_nonzero(sharded != single))
        resolve = fib.next_hops.resolve
        wrong = len(oracle.mismatches(check, [
            None if value < 0 else resolve(int(value)) for value in sharded
        ]))
        generation = coordinator.generation
        acks = coordinator.worker_acks()
    served = batches * batch_size
    rate = served / elapsed
    return {
        "workers": worker_count,
        "elapsed_seconds": round(elapsed, 6),
        "aggregate_klookups_per_sec": round(rate / 1000, 1),
        "divergences": divergences,
        "wrong_answers": wrong,
        "generations_published": generation,
        "worker_acks": acks,
    }


def run_shard_bench(table_size: int = 20_000, batches: int = 20,
                    batch_size: int = 20_000, churn: int = 8,
                    worker_counts: Sequence[int] = (1, 2, 4, 8),
                    seed: int = 1234, repeats: int = 3,
                    config: Optional[ChiselConfig] = None,
                    ) -> Dict[str, object]:
    """Run the scaling sweep; returns the JSON-ready report dict."""
    table = synthetic_table(table_size, seed=seed)
    trace = synthesize_trace(table, batches * churn * repeats, seed=seed)
    # Every worker count replays the whole trace, so one oracle serves all.
    oracle = Oracle(table)
    for op in trace:
        oracle.apply(op)
    runs = [
        _bench_one(worker_count, table, trace, oracle, batches, batch_size,
                   churn, seed, repeats=repeats, config=config)
        for worker_count in worker_counts
    ]
    base_rate = cast(float, runs[0]["aggregate_klookups_per_sec"]) or 1e-9
    for run in runs:
        run["speedup_vs_1_worker"] = round(
            cast(float, run["aggregate_klookups_per_sec"]) / base_rate, 2)
    gate_active = scaling_gate_active()
    divergences = sum(cast(int, run["divergences"]) for run in runs)
    wrong = sum(cast(int, run["wrong_answers"]) for run in runs)
    report: Dict[str, object] = {
        "table_size": table_size,
        "batches": batches,
        "batch_size": batch_size,
        "updates_per_batch": churn,
        "timing_repeats": repeats,
        "backend": (config.index_backend if config is not None
                    else "bloomier"),
        "cpu_count": os.cpu_count() or 1,
        "scaling_gate_active": gate_active,
        "total_divergences": divergences,
        "total_wrong_answers": wrong,
        "runs": runs,
    }
    failures: List[str] = []
    if divergences:
        failures.append(
            f"{divergences} divergences between sharded and "
            f"single-process serving"
        )
    if wrong:
        failures.append(f"{wrong} sharded answers differ from the oracle")
    gate_run = _run_for(runs, SCALING_GATE_WORKERS)
    if gate_active and gate_run is not None:
        speedup = cast(float, gate_run["speedup_vs_1_worker"])
        report["scaling_gate_speedup"] = speedup
        if speedup < SCALING_GATE_MIN_SPEEDUP:
            failures.append(
                f"aggregate speedup at {SCALING_GATE_WORKERS} workers is "
                f"{speedup:.2f}x < {SCALING_GATE_MIN_SPEEDUP}x"
            )
    else:
        floor = min(
            cast(float, run["speedup_vs_1_worker"]) for run in runs
        )
        if floor < SANITY_MIN_SPEEDUP:
            failures.append(
                f"multi-worker throughput collapsed to {floor:.2f}x of "
                f"single-worker — IPC overhead alone cannot explain this"
            )
    report["failures"] = failures
    report["passed"] = not failures
    return report


def _run_for(runs: List[Dict[str, object]],
             workers: int) -> Optional[Dict[str, object]]:
    for run in runs:
        if run["workers"] == workers:
            return run
    return None
