"""A miniature run of the kill-anywhere crash harness (``repro.store.crash``).

``chisel-repro crash --smoke`` runs the bigger CI campaign; this keeps a
small deterministic kill matrix plus the full corruption matrix inside
the tier-1 suite, so a regression in fsync ordering, replay chaining or
damage classification fails fast and locally.
"""

import pytest

from repro.store.crash import CrashReport, enumerate_crashpoints, run_crash
from repro.store.crash import _Workload


@pytest.fixture(autouse=True, scope="module")
def _isolated_registry():
    """Fresh metrics registry: crash runs inflate store/recovery counters
    that other modules' global-registry assertions must not observe."""
    from repro.obs import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


def test_tiny_kill_and_corruption_matrix():
    report = run_crash(table_size=120, updates=9, every_records=4,
                       seed=11, probes=12)
    assert report.ok, report.failures
    # Every enumerated crashpoint actually killed the writer.
    assert report.kills_delivered == report.kill_points > 0
    # Acknowledged updates were never lost, and nothing was silently wrong.
    assert report.seq_regressions == 0
    assert report.wrong_answers == 0
    assert report.lookups_checked > 0
    # Kills before the first durable checkpoint are the only refusals.
    assert report.boots_refused == report.refusals_legitimate
    # The matrix exercised the interesting shapes at least once.
    assert report.torn_tails > 0
    assert report.corruption_passed == report.corruption_cases == 6


def test_crashpoint_enumeration_covers_log_and_checkpoint_boundaries():
    import shutil

    workload = _Workload(table_size=100, updates=5, seed=4,
                         every_records=3, probes=4)
    points, directory = enumerate_crashpoints(workload)
    shutil.rmtree(directory, ignore_errors=True)
    tags = {tag for tag, _durable, _renamed in points}
    for expected in ("log:append-pre", "log:torn", "log:written",
                     "log:durable", "ckpt:pre", "ckpt:tmp-torn",
                     "ckpt:tmp-durable", "ckpt:renamed",
                     "ckpt:dir-durable", "ckpt:log-rotated",
                     "ckpt:pruned"):
        assert expected in tags, f"crashpoint {expected} never fired"
    # The durable seq is monotonic along the trace — the conservative floor
    # the recovery gate compares against never moves backwards.
    durables = [durable for _tag, durable, _renamed in points]
    assert durables == sorted(durables)


def test_report_gates_fire():
    report = CrashReport(kill_points=3, kills_delivered=2,
                         wrong_answers=1, lookups_checked=10,
                         corruption_cases=1, corruption_passed=0,
                         case_results={"torn-final-record": "boom"})
    report.evaluate()
    assert not report.ok
    joined = " ".join(report.failures)
    assert "silently-wrong" in joined
    assert "kills" in joined
    assert "torn-final-record" in joined
