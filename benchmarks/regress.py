#!/usr/bin/env python
"""CI perf-regression gate: current bench JSON vs committed baselines.

Compares the JSON reports the bench/smoke commands drop under
``results/`` against the committed snapshots in ``benchmarks/baselines/``
and fails (exit 1) when:

* a **throughput** metric dropped more than 25% below its baseline, or
* a **latency** metric (p99-style) grew more than 2x over its baseline
  (with a small absolute floor so microsecond-scale noise cannot trip
  the gate), or
* a **floor** metric fell below its required absolute value, or is
  missing from a report that is present.  Floors are
  baseline-independent: they gate *ratios measured within one run*
  (the flat datapath's speedup over the scalar oracle), so they hold on
  any machine, including the single-vCPU CI runner.  Every floor metric
  is always emitted by its bench, so a missing one means the bench
  broke, not that the metric does not apply.  The compiled plan's
  storage against the engine's model is floored the same way.

Metrics missing from the *baseline* are reported as skipped, never
failed — so new benches can land before their baseline is committed, and
a 4-worker shard run recorded on CI does not fail against a baseline
written on a smaller box.  A required *current* file that is missing
fails the gate (the bench did not run).  Every skipped check is named
in the summary — a metric silently falling out of the gate is itself a
regression worth seeing.

Under GitHub Actions (``GITHUB_ACTIONS`` set) each failure also emits a
``::error::`` workflow annotation naming the metric and the exact
baseline-refresh command, and the comparison report JSON is written
even when the gate fails or crashes mid-run, so the uploaded artifact
always explains what happened.

To accept an intentional perf change, regenerate the affected report and
commit it as the new baseline::

    PYTHONPATH=src python -m repro.cli serve-bench --smoke --json
    PYTHONPATH=src python -m repro.cli shard-bench --smoke --json
    PYTHONPATH=src python -m repro.cli metrics --smoke
    PYTHONPATH=src python benchmarks/bench_backend_ablation.py --smoke
    PYTHONPATH=src python -m repro.cli flat-bench --smoke --json
    PYTHONPATH=src python benchmarks/bench_store.py --smoke
    PYTHONPATH=src python -m repro.cli replicate --smoke --json
    cp results/serve_bench.json results/shard_bench.json \
       results/metrics_smoke.json results/backend_ablation.json \
       results/flat_bench.json results/store_bench.json \
       results/replicate.json benchmarks/baselines/
    git add benchmarks/baselines && git commit

Floor checks cannot be refreshed away: they are the feature's
acceptance bars, not an environment snapshot.

Stdlib-only on purpose: the gate must run even when the package under
test is broken enough that ``import repro`` fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Fail when throughput drops below (1 - this) of the baseline.
MAX_THROUGHPUT_DROP = 0.25
#: Fail when a latency metric grows beyond this multiple of the baseline.
MAX_LATENCY_GROWTH = 2.0
#: Minimum flat-datapath speedup over the scalar datapath (flat-bench
#: --smoke).  Twelve runs on a 2-vCPU host measured 34.9-55.0 (median
#: 39.0); the floor is 0.74x that median, rounded up.
FLAT_VS_SCALAR_FLOOR = 29.0
#: Minimum engine storage model over compiled-plan storage, per route
#: (flat-bench --smoke; a byte count, so it repeats exactly per seed).
#: Seeds 1, 7 and 2006 measured 0.154-0.157 with geometry-sized tables,
#: where the fixed-size hash byte tables are two thirds of the plan; the
#: 64-bit layout before it read 0.037.  The floor is 0.9x that, rounded
#: down: widening the Index Table or the arena to 64 bits trips it.
MODEL_VS_PLAN_FLOOR = 0.14

#: (file, dotted metric path, kind, absolute latency floor).
#: Paths support one list selector: ``runs[workers=4].rate`` picks the
#: element of ``runs`` whose ``workers`` equals 4.
CHECKS: List[Tuple[str, str, str, float]] = [
    ("serve_bench.json", "snapshot_klookups_per_sec", "throughput", 0.0),
    ("serve_bench.json", "scalar_klookups_per_sec", "throughput", 0.0),
    ("serve_bench.json", "update_lock_hold_p99_ms", "latency", 0.5),
    ("metrics_smoke.json", "noop_us_per_lookup", "latency", 1.0),
    ("metrics_smoke.json", "instrumented_us_per_lookup", "latency", 1.0),
    ("shard_bench.json", "runs[workers=1].aggregate_klookups_per_sec",
     "throughput", 0.0),
    ("shard_bench.json", "runs[workers=2].aggregate_klookups_per_sec",
     "throughput", 0.0),
    ("shard_bench.json", "runs[workers=4].aggregate_klookups_per_sec",
     "throughput", 0.0),
    # Each Index Table backend holds its own best-of-N throughput
    # envelope, so a regression in the fuse datapath cannot hide behind
    # a healthy Bloomier number (and vice versa).
    ("backend_ablation.json", "backends.bloomier.batch_klookups_per_sec",
     "throughput", 0.0),
    ("backend_ablation.json", "backends.fuse.batch_klookups_per_sec",
     "throughput", 0.0),
    # The flat datapath's acceptance bars (docs/DATAPATH.md): absolute
    # throughput against the committed envelope, plus its same-run
    # speedup over the scalar oracle as a machine-independent floor.
    ("flat_bench.json", "flat_klookups_per_sec", "throughput", 0.0),
    ("flat_bench.json", "flat_vs_scalar", "floor", FLAT_VS_SCALAR_FLOOR),
    # ... and its storage: the plan must stay near the engine's model.
    ("flat_bench.json", "model_vs_plan", "floor", MODEL_VS_PLAN_FLOOR),
    # Persistence acceptance bars (docs/PERSISTENCE.md): booting from
    # the mmap checkpoint + tail replay must beat a full recompile by a
    # same-run margin, and the recovered router's first batch must be
    # answer-identical to the recompiled one (first_batch_ok is 1.0
    # when the differential gate passed).
    ("store_bench.json", "coldstart_speedup", "floor", 1.2),
    ("store_bench.json", "first_batch_ok", "floor", 1.0),
    # Replication acceptance bars (docs/REPLICATION.md): catching up a
    # killed replica must cost well under a full-state ship (the
    # traffic-proportional-to-K gate, measured within one run), and the
    # matrix must end with zero divergent answers and byte-identical
    # canonical images (converged_ok is 1.0 exactly when both hold).
    ("replicate.json", "traffic_advantage", "floor", 2.0),
    ("replicate.json", "converged_ok", "floor", 1.0),
]

#: Current-side files the gate refuses to run without.
REQUIRED_FILES = ("serve_bench.json", "metrics_smoke.json",
                  "shard_bench.json", "backend_ablation.json",
                  "flat_bench.json", "store_bench.json",
                  "replicate.json")

#: Per-report regeneration commands, quoted verbatim in failure
#: annotations so the fix is one copy-paste away.
REFRESH_COMMANDS: Dict[str, str] = {
    "serve_bench.json":
        "PYTHONPATH=src python -m repro.cli serve-bench --smoke --json",
    "metrics_smoke.json":
        "PYTHONPATH=src python -m repro.cli metrics --smoke",
    "shard_bench.json":
        "PYTHONPATH=src python -m repro.cli shard-bench --smoke --json",
    "backend_ablation.json":
        "PYTHONPATH=src python benchmarks/bench_backend_ablation.py --smoke",
    "flat_bench.json":
        "PYTHONPATH=src python -m repro.cli flat-bench --smoke --json",
    "store_bench.json":
        "PYTHONPATH=src python benchmarks/bench_store.py --smoke",
    "replicate.json":
        "PYTHONPATH=src python -m repro.cli replicate --smoke --json",
}


def resolve(document: object, path: str) -> Optional[float]:
    """Follow a dotted path (with one ``list[key=value]`` selector)."""
    node = document
    for part in path.split("."):
        if node is None:
            return None
        if "[" in part:
            name, _bracket, selector = part.partition("[")
            key, _eq, raw = selector.rstrip("]").partition("=")
            items = node.get(name, []) if isinstance(node, dict) else []
            node = next(
                (item for item in items
                 if isinstance(item, dict)
                 and str(item.get(key)) == raw),
                None,
            )
        elif isinstance(node, dict):
            node = node.get(part)
        else:
            return None
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return float(node)
    return None


def compare_metric(kind: str, baseline: float, current: float,
                   floor: float) -> Optional[str]:
    """A failure message, or None when the metric is within bounds."""
    if kind == "throughput":
        allowed = baseline * (1.0 - MAX_THROUGHPUT_DROP)
        if current < allowed:
            drop = 100.0 * (1.0 - current / baseline) if baseline else 0.0
            return (f"throughput dropped {drop:.1f}% "
                    f"(baseline {baseline:g}, current {current:g}, "
                    f"allowed >= {allowed:g})")
        return None
    if kind == "latency":
        allowed = baseline * MAX_LATENCY_GROWTH
        if current > allowed and current > floor:
            growth = current / baseline if baseline else float("inf")
            return (f"latency grew {growth:.2f}x "
                    f"(baseline {baseline:g}, current {current:g}, "
                    f"allowed <= {allowed:g})")
        return None
    if kind == "floor":
        if current < floor:
            return (f"measured value {current:g} fell below the required "
                    f"floor {floor:g}")
        return None
    raise ValueError(f"unknown check kind {kind!r}")


def compare_reports(baselines: Dict[str, dict], currents: Dict[str, dict],
                    checks: List[Tuple[str, str, str, float]] = CHECKS,
                    required: Tuple[str, ...] = REQUIRED_FILES) -> dict:
    """Pure comparison: returns {passed, failures, skipped, checked}."""
    failures: List[str] = []
    skipped: List[str] = []
    checked: List[dict] = []
    for name in required:
        if name not in currents:
            failures.append(f"{name}: required report missing from results "
                            f"(did the bench step run?)")
    for file_name, path, kind, floor in checks:
        label = f"{file_name}:{path}"
        if file_name not in currents:
            # Name the metric even when the whole file is absent: for a
            # required file the failure above explains why, but a
            # non-required one used to vanish from the summary entirely
            # — a check silently dropping out of the gate.
            skipped.append(f"{label}: current report {file_name} absent")
            continue
        baseline_value = resolve(baselines.get(file_name), path)
        current_value = resolve(currents.get(file_name), path)
        if kind == "floor":
            # Baseline-independent: the floor itself is the bar.
            if current_value is None:
                failures.append(f"{label}: floor metric missing from the "
                                f"report (required floor {floor:g})")
                continue
            message = compare_metric(kind, floor, current_value, floor)
            checked.append({
                "metric": label,
                "kind": kind,
                "baseline": floor,
                "current": current_value,
                "ok": message is None,
            })
            if message is not None:
                failures.append(f"{label}: {message}")
            continue
        if baseline_value is None:
            skipped.append(f"{label}: no baseline value")
            continue
        if current_value is None:
            skipped.append(f"{label}: not measured in this run "
                           f"(baseline {baseline_value:g})")
            continue
        message = compare_metric(kind, baseline_value, current_value, floor)
        checked.append({
            "metric": label,
            "kind": kind,
            "baseline": baseline_value,
            "current": current_value,
            "ok": message is None,
        })
        if message is not None:
            failures.append(f"{label}: {message}")
    return {
        "passed": not failures,
        "failures": failures,
        "skipped": skipped,
        "checked": checked,
    }


def _load_dir(directory: Path, names: List[str]) -> Dict[str, dict]:
    documents: Dict[str, dict] = {}
    for name in names:
        path = directory / name
        if not path.is_file():
            continue
        try:
            documents[name] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"regress: cannot read {path}: {error}", file=sys.stderr)
    return documents


def _annotate_failures(failures: List[str]) -> None:
    """Emit GitHub ``::error::`` workflow annotations (Actions only).

    One annotation per failure, naming the metric and quoting the exact
    baseline-refresh command, so the Checks tab explains the fix
    without opening the job log.
    """
    if not os.environ.get("GITHUB_ACTIONS"):
        return
    for failure in failures:
        metric = failure.split(": ", 1)[0]
        file_name = metric.split(":", 1)[0]
        refresh = REFRESH_COMMANDS.get(file_name)
        hint = (f" If intentional, refresh the baseline: {refresh} && "
                f"cp results/{file_name} benchmarks/baselines/"
                if refresh else "")
        # Annotation bodies are single-line; %0A would re-add newlines.
        print(f"::error title=perf regression: {metric}::{failure}{hint}")


def main(argv: Optional[List[str]] = None) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(
        description="fail CI when bench results regress vs the committed "
                    "baselines")
    parser.add_argument("--results", type=Path,
                        default=repo_root / "results",
                        help="directory with this run's bench JSON")
    parser.add_argument("--baselines", type=Path,
                        default=repo_root / "benchmarks" / "baselines",
                        help="directory with the committed baseline JSON")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the comparison report JSON here "
                             "(written even when the gate fails or "
                             "crashes, so CI artifacts always explain "
                             "the run)")
    args = parser.parse_args(argv)

    report: dict = {"passed": False, "failures": [], "skipped": [],
                    "checked": [], "error": None}
    try:
        names = sorted({check[0] for check in CHECKS})
        compared = compare_reports(
            _load_dir(args.baselines, names), _load_dir(args.results, names))
        report.update(compared)
    except Exception as error:  # the artifact must still say what broke
        report["error"] = f"{type(error).__name__}: {error}"
        report["failures"] = [f"regress gate crashed: {report['error']}"]
        print(f"regress: {report['error']}", file=sys.stderr)
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::error title=perf regression gate crashed::"
                  f"{report['error']}")
        return 2
    finally:
        if args.report is not None:
            try:
                args.report.parent.mkdir(parents=True, exist_ok=True)
                args.report.write_text(
                    json.dumps(report, indent=2, sort_keys=True))
            except OSError as error:
                print(f"regress: cannot write {args.report}: {error}",
                      file=sys.stderr)
    for entry in report["checked"]:
        status = "ok  " if entry["ok"] else "FAIL"
        print(f"  {status} {entry['kind']:<10} {entry['metric']}: "
              f"baseline {entry['baseline']:g} -> "
              f"current {entry['current']:g}")
    for note in report["skipped"]:
        print(f"  skip {note}")
    if report["skipped"]:
        print(f"  ({len(report['skipped'])} metric(s) skipped — named "
              f"above, not silently dropped)")
    if report["failures"]:
        _annotate_failures(report["failures"])
        print("\nperf regression gate FAILED:")
        for failure in report["failures"]:
            print(f"  - {failure}")
        print(
            "\nIf this change is intentional, refresh the baselines:\n"
            "  PYTHONPATH=src python -m repro.cli serve-bench --smoke"
            " --json\n"
            "  PYTHONPATH=src python -m repro.cli shard-bench --smoke"
            " --json\n"
            "  PYTHONPATH=src python -m repro.cli metrics --smoke\n"
            "  PYTHONPATH=src python benchmarks/bench_backend_ablation.py"
            " --smoke\n"
            "  PYTHONPATH=src python -m repro.cli flat-bench --smoke"
            " --json\n"
            "  PYTHONPATH=src python benchmarks/bench_store.py --smoke\n"
            "  PYTHONPATH=src python -m repro.cli replicate --smoke"
            " --json\n"
            "  cp results/serve_bench.json results/shard_bench.json \\\n"
            "     results/metrics_smoke.json results/backend_ablation.json"
            " \\\n"
            "     results/flat_bench.json results/store_bench.json \\\n"
            "     results/replicate.json benchmarks/baselines/\n"
            "and commit the updated benchmarks/baselines/.  Floor checks\n"
            "(speedup ratios) have no baseline to refresh: a floor failure\n"
            "means the datapath itself regressed."
        )
        return 1
    print(f"\nperf regression gate passed "
          f"({len(report['checked'])} metrics checked, "
          f"{len(report['skipped'])} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
