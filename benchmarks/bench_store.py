#!/usr/bin/env python
"""Cold-start bench: mmap checkpoint + tail replay vs full recompile.

The persistence tentpole's whole point is that a restarting router does
*not* pay the Chisel compile (Bloomier planning + filter encode) again:
it maps the newest valid checkpoint copy-on-write and replays only the
delta-log tail, each update patching the mapped image.  This bench measures both boot
paths over the same store directory and reports the ratio as the
machine-independent acceptance floor (``coldstart_speedup``), plus a
differential gate (``first_batch_ok``): the first batch served by the
recovered router — half its keys under the prefixes the trace changed —
must be answer-identical to the freshly recompiled one.  It also
reports the newest checkpoint's size (``checkpoint_bytes``): the
compiled image plus the pickled forwarding engine.

Run directly (``python benchmarks/bench_store.py [--smoke]``).  The
rendered report lands in ``results/store_bench.json``; refresh the
committed baseline with::

    PYTHONPATH=src python benchmarks/bench_store.py --smoke
    cp results/store_bench.json benchmarks/baselines/
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time
from typing import Dict, Tuple

import numpy as np

from repro.analysis.report import save_report
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.store import CheckpointPolicy, SnapshotStore, cold_start
from repro.store.store import checkpoint_path, list_generations
from repro.verify import apply_update, keys_under
from repro.workloads import synthesize_trace, synthetic_table

#: Updates deliberately not divisible by the checkpoint interval so the
#: measured cold start always includes a real tail replay, not just the
#: mmap.
_EVERY_RECORDS = 64


def _build_store(directory: str, table, ops) -> None:
    """Populate a store directory the way a live writer would."""
    router = SnapshotRouter(ForwardingEngine.from_table(table))
    store = SnapshotStore.create(
        directory, router,
        policy=CheckpointPolicy(every_records=_EVERY_RECORDS, retain=2),
        sync=True,
    )
    for op in ops:
        apply_update(router, op)
        store.maybe_checkpoint()
    store.close()


def _time_recompile(table, ops, keys: np.ndarray,
                    repeats: int) -> Tuple[float, np.ndarray]:
    """The no-store boot: full Chisel compile plus whole-trace replay."""
    best = float("inf")
    answers = None
    for _ in range(repeats):
        started = time.perf_counter()
        router = SnapshotRouter(ForwardingEngine.from_table(table))
        for op in ops:
            apply_update(router, op)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
        answers = np.asarray(router.lookup_batch(keys))
    return best, answers


def _time_coldstart(directory: str, keys: np.ndarray,
                    repeats: int) -> Tuple[float, np.ndarray, dict]:
    """The store boot: map newest checkpoint, replay the log tail.

    ``checkpoint_on_boot=False`` so repeated timing rounds all see the
    same directory shape (the default would fold the tail into a fresh
    checkpoint on the first round and leave nothing to replay).
    """
    best = float("inf")
    answers = None
    report: Dict[str, object] = {}
    for _ in range(repeats):
        started = time.perf_counter()
        boot = cold_start(directory, checkpoint_on_boot=False)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            report = boot.report.to_dict()
        answers = np.asarray(boot.router.lookup_batch(keys))
        boot.store.close()
        if boot.checkpoint is not None:
            boot.checkpoint.close()
    return best, answers, report


def run(size: int, updates: int, batch: int, repeats: int,
        seed: int) -> Dict[str, object]:
    table = synthetic_table(size, seed=seed)
    ops = synthesize_trace(table, updates, seed=seed + 1)
    # Half the compared keys lie under the prefixes the trace changes.
    keys = np.array(
        keys_under(random.Random(seed), table.width, batch,
                   [op.prefix for op in ops]),
        dtype=np.uint64,
    )
    directory = tempfile.mkdtemp(prefix="chz-store-bench-")
    try:
        _build_store(directory, table, ops)
        checkpoint_bytes = os.path.getsize(
            checkpoint_path(directory, list_generations(directory)[-1]))
        cold_seconds, cold_answers, report = _time_coldstart(
            directory, keys, repeats)
        compile_seconds, compile_answers = _time_recompile(
            table, ops, keys, repeats)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    # Numeric (1.0/0.0) on purpose: the regress gate's floor check
    # treats JSON booleans as "not measured" and would silently skip.
    first_batch_ok = float(np.array_equal(cold_answers, compile_answers))
    return {
        "table_size": size,
        "updates": updates,
        "batch": batch,
        "repeats": repeats,
        "coldstart_seconds": cold_seconds,
        "recompile_seconds": compile_seconds,
        "coldstart_speedup": compile_seconds / cold_seconds,
        "first_batch_ok": first_batch_ok,
        "checkpoint_bytes": checkpoint_bytes,
        "updates_replayed": report.get("updates_replayed"),
        "boot": report.get("boot"),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small table, fewer repeats (CI gate shape)")
    parser.add_argument("--size", type=int, default=4000)
    parser.add_argument("--updates", type=int, default=150)
    parser.add_argument("--batch", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args(argv)
    if args.smoke:
        args.size, args.updates, args.batch = 1200, 90, 2048
    result = run(args.size, args.updates, args.batch, args.repeats,
                 args.seed)
    rendered = json.dumps(result, indent=2, sort_keys=True)
    path = save_report("store_bench.json", rendered)
    print(rendered)
    print(f"wrote {path}")
    if not result["first_batch_ok"]:
        print("FAIL: recovered router diverged from recompiled router",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
