"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs an untraced pass and then a traced one over the same inputs, each
for half the seconds, and prints the per-layer metrics, the untraced pass's end-to-end values
(``e2e.*``) and the traced-minus-untraced cost of each (``overhead.*``).
Spans of the traced pass are written to ``perfbench/out/``.  See
perfbench/README.md for the workloads and every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SHM = "/dev/shm"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _scratch_root() -> str:
    """tmpfs for the journal and replica state when the host has it.

    fsync on a shared disk varies run to run by an order of magnitude
    more than the update path itself; on tmpfs it costs ~1 µs, so the
    update metrics measure the program with ``sync=True`` left on.
    """
    if os.path.isdir(SHM) and os.access(SHM, os.W_OK):
        return SHM
    os.makedirs(OUT, exist_ok=True)
    return OUT


def _children(pid: int) -> List[str]:
    """Processes (alive or defunct) whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(f"{entry} ({fields[0]})")
    return found


def _leftovers(scratch: str) -> List[str]:
    """What the run left behind: children, segments, stack directories."""
    pid = os.getpid()
    deadline = time.monotonic() + 5.0
    children = _children(pid)
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = _children(pid)
    problems = [f"child process {child} still present" for child in children]
    if os.path.isdir(SHM):
        problems += [f"/dev/shm/{name} still present"
                     for name in os.listdir(SHM)
                     if name.startswith(f"chz-{pid}-")]
    problems += [f"{os.path.join(scratch, name)} still present"
                 for name in os.listdir(scratch)]
    return problems


def _stop_resource_tracker() -> None:
    """Stop the tracker the first shared-memory segment started.

    It is not among ``multiprocessing.active_children()`` and nothing in
    the program stops it, so it would outlive the run as a defunct child
    of init.  ``_stop`` closes its pipe and reaps it; the join bounds it.
    """
    from multiprocessing import resource_tracker

    stopper = threading.Thread(target=resource_tracker._resource_tracker._stop,
                               daemon=True)
    stopper.start()
    stopper.join(timeout=10.0)


def _declared() -> Dict[str, Dict[str, dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {kind: {m["name"]: m for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def _report(title: str, values: Dict[str, float], units: Dict[str, str],
            names) -> None:
    print(title)
    for name in names:
        print(f"  {name:<26} {values[name]:>16.6g} {units[name]}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scratch: str) -> dict:
    from tracing import Tracer
    from workloads import APPLIES, Pass, inputs_for

    declared = _declared()
    e2e_units = {name: m["unit"] for name, m in declared["end_to_end"].items()}
    layer_units = {name: m["unit"] for name, m in declared["per_layer"].items()}
    units = dict(e2e_units)
    units.update({name[len("e2e."):]: unit for name, unit in layer_units.items()
                  if name.startswith("e2e.")})
    if trace:
        # Two passes share the run's time: untraced, then traced.
        seconds /= 2
    inputs = inputs_for(workload, seed, seconds)
    print(f"workload {workload}: seed {seed}, {len(inputs.table)} routes, "
          f"{len(inputs.trace)} trace updates, closed loop, one client")
    print(f"journal and replica state: {scratch} "
          f"({_fs_type(scratch)}, sync=True)")
    untraced = Pass(workload, inputs, scratch, seconds, None)
    untraced.run(1 if trace else SETUP_REPEATS)
    plain = untraced.end_to_end()
    _report("end-to-end (untraced):", plain, units, APPLIES[workload])
    attempted, failures = untraced.attempted, list(untraced.failures)
    if not trace:
        metrics = {name: plain[name] for name in declared["end_to_end"]}
    else:
        tracer = Tracer()
        traced_pass = Pass(workload, inputs_for(workload, seed, seconds),
                           scratch, seconds, tracer)
        traced_pass.run(1)
        attempted += traced_pass.attempted
        failures += traced_pass.failures
        traced = traced_pass.end_to_end()
        layers = traced_pass.per_layer()
        for name, value in plain.items():
            better = (declared["end_to_end"].get(name)
                      or declared["per_layer"].get(f"e2e.{name}"))["better"]
            cost = traced[name] - value
            layers[f"overhead.{name}"] = (cost if better == "lower" else -cost) + 0.0
            layers[f"e2e.{name}"] = value
        path = os.path.join(OUT, f"trace-{workload}.jsonl")
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path}")
        metrics = {name: layers[name] for name in declared["per_layer"]}
        _report("per-layer (traced):", layers, layer_units,
                [n for n in declared["per_layer"]
                 if not n.startswith(("e2e.", "overhead."))])
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    kinds = "per_layer" if trace else "end_to_end"
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": declared[kinds][name]["unit"]}
                    for name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lookup", "churn", "replicate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    signal.signal(signal.SIGINT, _exit_on_signal)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads  # noqa: F401  (fails fast without the program)
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT}/src: "
              f"{error}", file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix=f"perfbench-{os.getpid()}-",
                               dir=_scratch_root())
    result, problems = None, []
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), scratch)
    except Exception:
        traceback.print_exc()
    finally:
        _stop_resource_tracker()
        problems = _leftovers(scratch)
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAILED: {problem}")
    if result is None:
        return 1
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
