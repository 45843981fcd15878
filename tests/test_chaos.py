"""The chaos harness: gates, determinism, and the CLI entry point."""

import json
import random

import pytest

from repro.faults.chaos import ChaosReport, run_chaos
from repro.prefix import Prefix
from repro.router.fib import ForwardingEngine
from repro.verify import keys_under

SMALL = dict(table_size=700, rounds=6, churn_per_round=20,
             faults_per_round=25, batch_size=128, seed=11,
             faults_required=100)


@pytest.fixture(autouse=True, scope="module")
def _isolated_registry():
    """Fresh metrics registry per module: fault/degrade runs record long
    lock holds and large counter values that must not leak into other
    modules' global-registry assertions (e.g. the serve p99 gate)."""
    from repro.obs import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)



@pytest.fixture(scope="module")
def small_report():
    return run_chaos(**SMALL)


def test_small_run_passes_every_gate(small_report):
    assert small_report.ok, small_report.failures
    assert small_report.wrong_answers == 0
    assert small_report.detection_rate >= 0.99
    assert small_report.setup_errors_escaped == 0
    assert small_report.final_state == "healthy"


def test_small_run_exercises_the_failure_paths(small_report):
    # The schedule guarantees these paths actually ran — a chaos run that
    # quietly skipped its faults would pass the gates vacuously.
    assert small_report.faults_injected >= SMALL["faults_required"]
    assert small_report.setup_failures_forced >= 2
    assert small_report.setup_failures_absorbed >= 1
    assert small_report.degraded_entries >= 1
    assert small_report.recoveries >= 1
    assert small_report.uncorrectable_events >= 1
    assert small_report.malformed_rejected > 0
    assert small_report.malformed_accepted == 0
    assert small_report.lookups_checked > 0


def test_wrong_next_hop_on_churned_routes_fails_the_run(monkeypatch):
    """The oracle's keys land under the routes the trace changed, so a
    router that installs a wrong next hop on every trace announce cannot
    pass."""
    announce = ForwardingEngine.announce

    def misroute(self, prefix, gateway, interface):
        if gateway.startswith("10.8."):  # the next_hop_for naming
            gateway = "192.0.2.1"
        return announce(self, prefix, gateway, interface)

    monkeypatch.setattr(ForwardingEngine, "announce", misroute)
    report = run_chaos(**SMALL)
    assert report.wrong_answers > 0
    assert not report.ok


def test_keys_under_puts_half_under_the_prefixes_and_is_seeded():
    prefixes = [Prefix.from_string("203.0.113.0/24"),
                Prefix.from_string("198.51.100.128/25")]

    def covered(key):
        return any(prefix.covers(key) for prefix in prefixes)

    keys = keys_under(random.Random(5), 32, 400, prefixes)
    assert len(keys) == 400
    assert not any(covered(key) for key in keys[:200])
    assert all(covered(key) for key in keys[200:])
    assert keys == keys_under(random.Random(5), 32, 400, prefixes)
    assert keys != keys_under(random.Random(6), 32, 400, prefixes)


def test_chaos_is_deterministic_per_seed(small_report):
    again = run_chaos(**SMALL)
    assert again.to_dict() == small_report.to_dict()


def test_report_gates_fire():
    report = ChaosReport(rounds=1, faults_required=10)
    report.faults_injected = 500
    report.single_bit_faults = 100
    report.single_bit_detected = 90  # below the 99% gate
    report.wrong_answers = 3
    report.setup_errors_escaped = 1
    report.setup_failures_forced = 2
    report.final_state = "degraded"
    report.evaluate()
    assert not report.ok
    text = " ".join(report.failures)
    assert "silently-wrong" in text
    assert "detection" in text
    assert "escaped" in text
    assert "degraded" in text


def test_report_gates_pass_on_clean_run():
    report = ChaosReport(rounds=1, faults_required=10)
    report.faults_injected = 500
    report.single_bit_faults = 100
    report.single_bit_detected = 100
    report.setup_failures_forced = 2
    report.final_state = "healthy"
    report.evaluate()
    assert report.ok, report.failures


def test_cli_smoke_passes_and_emits_json(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["chaos", "--smoke", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["faults_injected"] >= 500
    assert payload["wrong_answers"] == 0
    assert payload["detection_rate"] >= 0.99
    assert payload["final_state"] == "healthy"
