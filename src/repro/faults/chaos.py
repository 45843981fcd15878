"""Chaos harness: churn + injected faults vs a golden oracle.

One run drives a ``SnapshotRouter`` through rounds of BGP-style churn
while a seeded :class:`FaultInjector` corrupts the hardware tables and
forces setup-path failures, and checks every served answer against the
:class:`repro.verify.Oracle` replaying the same updates.  The
contract under test is the resilience invariant (docs/RESILIENCE.md):

    every answer is either *correct* or the fault was *detected* and the
    router visibly degraded — never silently wrong.

Fault schedule per run (all from one seed, fully reproducible):

* every round: ``churn_per_round`` updates — mangled by the injector
  with duplicates and reorders — applied to router and oracle alike,
  plus a few malformed records that must be rejected with
  ``MalformedUpdateError``;
* every round: ``faults_per_round`` table faults, injected one at a
  time with a scrub after each so detection is attributable per fault
  (mostly single-bit flips; every eighth a multi-bit word scramble);
* one round wraps its churn in a forced Bloomier setup failure and one
  in a forced spillover TCAM overflow — the router must absorb both
  (degrading at worst), never propagate;
* one round corrupts a *shadow* bucket pointer, the uncorrectable case
  that must push the router into DEGRADED;
* after every round a lookup batch is served and compared to the
  oracle — half uniform keys, half keys under the prefixes the run has
  changed so far — and the recovery heartbeat runs on a fake clock so
  the run also exercises DEGRADED -> RECOVERING -> HEALTHY.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.updates import ANNOUNCE, MalformedUpdateError, UpdateOp
from ..obs import get_registry
from ..prefix.prefix import Prefix
from ..router.fib import ForwardingEngine
from ..serve.snapshot import (
    _SETUP_FAILURES,
    RecompilePolicy,
    RouterState,
    SnapshotRouter,
)
from ..verify import HarnessReport, Oracle, apply_update, keys_under
from ..workloads.synthetic import synthetic_table
from ..workloads.traces import synthesize_trace
from .inject import FaultInjector

#: Minimum fraction of injected single-bit faults a scrub must detect.
DETECTION_GATE = 0.99


@dataclass
class ChaosReport(HarnessReport):
    """Outcome of one chaos run, with the pass/fail gates attached."""

    rounds: int = 0
    faults_required: int = 0
    updates_applied: int = 0
    malformed_rejected: int = 0
    malformed_accepted: int = 0
    faults_injected: int = 0
    single_bit_faults: int = 0
    single_bit_detected: int = 0
    multi_bit_faults: int = 0
    multi_bit_detected: int = 0
    faults_repaired: int = 0
    uncorrectable_events: int = 0
    setup_failures_forced: int = 0
    setup_failures_absorbed: int = 0
    setup_errors_escaped: int = 0
    degraded_entries: int = 0
    degraded_lookups: int = 0
    recoveries: int = 0
    lookups_checked: int = 0
    wrong_answers: int = 0
    #: Detected fraction of single-bit faults (1.0 when none injected),
    #: set by :meth:`evaluate`.
    detection_rate: float = 1.0
    final_state: str = ""

    def evaluate(self) -> None:
        """Apply the acceptance gates; failures join ``self.failures``."""
        if self.single_bit_faults:
            self.detection_rate = (self.single_bit_detected
                                   / self.single_bit_faults)
        if self.faults_injected < self.faults_required:
            self.failures.append(
                f"only {self.faults_injected} faults injected; the run "
                f"must deliver at least {self.faults_required}"
            )
        if self.wrong_answers:
            self.failures.append(
                f"{self.wrong_answers} silently-wrong lookups (of "
                f"{self.lookups_checked}) — the one inviolable contract"
            )
        if self.detection_rate < DETECTION_GATE:
            self.failures.append(
                f"single-bit detection {self.detection_rate:.4f} below the "
                f"{DETECTION_GATE} gate "
                f"({self.single_bit_detected}/{self.single_bit_faults})"
            )
        if self.setup_errors_escaped:
            self.failures.append(
                f"{self.setup_errors_escaped} setup-path errors escaped "
                f"the SnapshotRouter"
            )
        if not self.setup_failures_forced:
            self.failures.append(
                "forced setup failures never reached the setup path"
            )
        if self.malformed_accepted:
            self.failures.append(
                f"{self.malformed_accepted} malformed updates accepted"
            )
        if self.degraded_entries and not self.recoveries:
            self.failures.append(
                "router degraded but never recovered to HEALTHY"
            )
        if self.final_state != RouterState.HEALTHY.value:
            self.failures.append(
                f"run ended in state {self.final_state!r}, not healthy"
            )


def run_chaos(
    table_size: int = 2_000,
    rounds: int = 10,
    churn_per_round: int = 40,
    faults_per_round: int = 65,
    batch_size: int = 512,
    seed: int = 2006,
    backoff: float = 2.0,
    faults_required: int = 500,
    backend: str = "bloomier",
) -> ChaosReport:
    """One seeded chaos run; see the module docstring for the schedule."""
    import random

    from ..core.config import ChiselConfig

    report = ChaosReport(rounds=rounds, faults_required=faults_required)
    rng = random.Random(seed)
    injector = FaultInjector(seed=seed ^ 0xFA17)
    clock = [1000.0]

    table = synthetic_table(table_size, seed=seed)
    # Default hash seed (not the run seed) so a default-backend chaos run
    # is byte-identical to one built without an explicit config.
    config = ChiselConfig(width=table.width, index_backend=backend)
    fib = ForwardingEngine.from_table(table, config=config,
                                      dirty_purge_threshold=64)
    router = SnapshotRouter(
        fib,
        RecompilePolicy(max_overlay=64, max_age=0.0),
        clock=lambda: clock[0],
        backoff_initial=backoff,
    )
    oracle = Oracle(table)

    trace = synthesize_trace(table, rounds * churn_per_round, seed=seed + 1)
    trace = injector.mangle_trace(trace)
    position = 0
    # Designated special rounds (skip round 0 so the run warms up clean).
    setup_failure_round = 1 % rounds
    overflow_round = 2 % rounds
    shadow_round = rounds // 2

    def apply(op: UpdateOp) -> None:
        try:
            apply_update(router, op)
        except _SETUP_FAILURES:
            report.setup_errors_escaped += 1
        oracle.apply(op)
        report.updates_applied += 1

    def apply_churn(count: int) -> None:
        nonlocal position
        for op in trace[position:position + count]:
            apply(op)
        position += count

    def serve_and_check() -> None:
        keys = keys_under(rng, table.width, batch_size, oracle.changed)
        wrong = oracle.mismatches(keys, router.forward_batch(keys))
        report.lookups_checked += len(keys)
        report.wrong_answers += len(wrong)
        for key, got, want in wrong:
            get_registry().trace(
                "chaos_wrong_answer", key=key,
                served=str(got), expected=str(want),
            )

    def announce_fresh(octet: int, delivered: List[int]) -> None:
        """Announce new prefixes until one hits the (patched) setup path.

        Churn ops mostly land on existing buckets, which never touch the
        Index Table; a fresh collapsed prefix is what forces the insert
        whose failure the round is meant to exercise.
        """
        for i in range(32):
            apply(UpdateOp(ANNOUNCE,
                           Prefix.from_string(f"203.{octet}.{i}.0/24")))
            if delivered[0]:
                return

    for round_index in range(rounds):
        # -- churn, possibly under a forced setup-path failure ----------------
        if round_index == setup_failure_round:
            apply_churn(churn_per_round)
            # One failure with a clean retry: must be absorbed in place.
            with injector.force_setup_failure(times=1) as delivered:
                announce_fresh(0, delivered)
            report.setup_failures_forced += delivered[0]
            # Failure plus failed retry: must degrade, never propagate.
            with injector.force_setup_failure(times=4) as delivered:
                announce_fresh(1, delivered)
            report.setup_failures_forced += delivered[0]
        elif round_index == overflow_round:
            with injector.force_spillover_overflow(fib.engine):
                apply_churn(churn_per_round)
        else:
            apply_churn(churn_per_round)

        # -- malformed records must be rejected at the boundary ---------------
        for kwargs in injector.malformed_updates(2):
            try:
                UpdateOp(**kwargs)
            except MalformedUpdateError:
                report.malformed_rejected += 1
            else:
                report.malformed_accepted += 1

        # -- table faults, one at a time so detection is attributable ---------
        if router.state is RouterState.HEALTHY:
            for fault_index in range(faults_per_round):
                scramble = fault_index % 8 == 7
                record = (
                    injector.scramble_word(fib.engine) if scramble
                    else injector.flip_table_bit(fib.engine)
                )
                if record is None:
                    continue
                report.faults_injected += 1
                scrub = router.scrub()
                detected = scrub is None or not scrub.clean
                if scramble:
                    report.multi_bit_faults += 1
                    report.multi_bit_detected += int(detected)
                else:
                    report.single_bit_faults += 1
                    report.single_bit_detected += int(detected)
                if scrub is not None:
                    report.faults_repaired += scrub.total_repaired
                    report.uncorrectable_events += len(scrub.uncorrectable)
                if router.state is not RouterState.HEALTHY:
                    break

        # -- the uncorrectable case: corrupt the shadow itself -----------------
        if round_index == shadow_round and router.state is RouterState.HEALTHY:
            if injector.corrupt_shadow_pointer(fib.engine) is not None:
                report.faults_injected += 1
                scrub = router.scrub()
                if scrub is not None:
                    report.uncorrectable_events += len(scrub.uncorrectable)
                if router.state is RouterState.HEALTHY:
                    report.failures.append(
                        "shadow corruption did not degrade the router"
                    )

        # -- serve under whatever state the faults left us in ------------------
        serve_and_check()
        router.maybe_recompile()

        # -- recovery heartbeat on the fake clock ------------------------------
        clock[0] += backoff
        router.maybe_recompile()

    # Give a still-degraded router its backed-off recovery chances.
    for _ in range(8):
        if router.state is RouterState.HEALTHY:
            break
        clock[0] += router._backoff
        router.maybe_recompile()
    serve_and_check()

    report.setup_failures_absorbed = router.metrics.setup_failures_absorbed
    report.degraded_entries = router.metrics.degraded_entered
    report.degraded_lookups = router.metrics.degraded_lookups
    report.recoveries = router.metrics.recoveries
    report.final_state = router.state.value
    report.evaluate()
    return report
