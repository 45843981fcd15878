#!/usr/bin/env python
"""Replication catch-up traffic vs. miss count K (the o(checkpoint) claim).

A replica that misses K updates and rejoins must pay bytes proportional
to K, not to the table: the local delta log preserves its resume point
across a SIGKILL, so the writer ships only the missed suffix.  This
bench kills one replica repeatedly, lets it miss a sweep of K values,
and measures the wire bytes each catch-up cost against the size of a
full-state resync (``checkpoint_bytes``).  It also records the writer's
reconciliations and resyncs per K, and fails on any resync: a catch-up
must stream or reconcile, never ship the table.

The rendered report lands in ``results/replicate_bench.json``.  The
acceptance floors live in ``results/replicate.json`` (the harness run,
``chisel-repro replicate``); this sweep is the measurement behind the
numbers quoted in docs/REPLICATION.md.

Run directly: ``PYTHONPATH=src python benchmarks/bench_replicate.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Dict, List

from repro.analysis.report import save_report
from repro.core.config import ChiselConfig
from repro.replicate import ReplicationCoordinator, bootstrap
from repro.replicate.harness import ReplicaHandle, _wait_until
from repro.serve import SnapshotRouter
from repro.verify import apply_update
from repro.workloads import synthesize_trace, synthetic_table


def run(size: int, k_values: List[int], seed: int) -> Dict[str, object]:
    table = synthetic_table(size, seed=seed)
    config = ChiselConfig(width=table.width, stride=4, seed=seed)
    fib, ledger = bootstrap(table, config)
    router = SnapshotRouter(fib)
    coordinator = ReplicationCoordinator(router, ledger, config)
    port = coordinator.listen()
    workdir = tempfile.mkdtemp(prefix="chz-replicate-bench-")
    handle = ReplicaHandle(0, port, table, config,
                           os.path.join(workdir, "replica0"),
                           status_interval=0.08, scrub_interval=60.0)
    trace = synthesize_trace(table, sum(k_values) + 64, seed=seed + 1)
    position = 0
    failures: List[str] = []
    sweep: List[Dict[str, object]] = []

    def apply_ops(count: int) -> None:
        nonlocal position
        for op in trace[position:position + count]:
            apply_update(router, op)
        position += count

    def caught_up() -> bool:
        state = handle.status()
        return (state["seq"] == coordinator.seq
                and state["checksum"] == coordinator.ledger.checksum)

    try:
        handle.spawn()
        coordinator.start()
        checkpoint_bytes = coordinator.checkpoint_bytes()
        _wait_until(caught_up, "initial sync", failures)
        apply_ops(32)  # warm the stream path before measuring
        _wait_until(caught_up, "warm-up churn", failures)

        for k in k_values:
            handle.kill()
            apply_ops(k)
            recons, resyncs = coordinator.recon_sessions, coordinator.resyncs
            started = time.monotonic()
            handle.spawn()
            _wait_until(caught_up, f"catch-up at K={k}", failures)
            seconds = time.monotonic() - started
            recons = coordinator.recon_sessions - recons
            resyncs = coordinator.resyncs - resyncs
            if resyncs:
                failures.append(f"catch-up at K={k} took {resyncs} "
                                "full resyncs")
            session = coordinator.status()["sessions"].get(0, {})
            catchup_bytes = (session.get("bytes_sent", 0)
                             + session.get("bytes_received", 0))
            sweep.append({
                "k": k,
                "bytes": catchup_bytes,
                "bytes_per_missed_update": round(catchup_bytes / k, 1),
                "seconds": round(seconds, 3),
                "percent_of_checkpoint": round(
                    100.0 * catchup_bytes / checkpoint_bytes, 2),
                "recon_sessions": recons,
                "resyncs": resyncs,
            })
    finally:
        handle.stop()
        coordinator.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    first, last = sweep[0], sweep[-1]
    return {
        "table_size": len(table),
        "checkpoint_bytes": checkpoint_bytes,
        "sweep": sweep,
        # Bytes must grow ~linearly in K: compare the growth of cost to
        # the growth of K across the sweep's endpoints.
        "k_growth": round(last["k"] / first["k"], 2),
        "bytes_growth": round(last["bytes"] / first["bytes"], 2),
        "traffic_advantage_at_min_k": round(
            checkpoint_bytes / first["bytes"], 2),
        "failures": failures,
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small table, short sweep (CI shape)")
    parser.add_argument("--size", type=int, default=5000)
    parser.add_argument("--k", type=int, nargs="+",
                        default=[16, 32, 64, 128, 256])
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args(argv)
    if args.smoke:
        args.size, args.k = 1000, [8, 32, 128]
    result = run(args.size, args.k, args.seed)
    rendered = json.dumps(result, indent=2, sort_keys=True)
    path = save_report("replicate_bench.json", rendered)
    print(rendered)
    print(f"wrote {path}")
    if result["failures"]:
        for failure in result["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
