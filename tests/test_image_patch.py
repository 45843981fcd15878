"""The served image is patched per update and equals a fresh compile.

Each route update logs the hardware words it wrote (``WriteLog``); the
``SnapshotRouter`` copies that burst into its served ``BatchLookup``
under the update lock, and recompiles a sub-cell alone when its writes
have no word names (re-setup, growth, purge, scrub repair).  These
tests hold the router to its contract after *every* update:

* the served image equals ``FlatSubCellPlan.compile`` of every sub-cell
  (``repro.verify.image_differences``);
* the served answers equal the scalar path on keys under the changed
  prefixes;
* a lock-free reader that overlaps a burst retries, so it never returns
  answers from half an update.
"""

import pickle
import random
import threading

import numpy as np
import pytest

from repro.bloomier.backend import XorIndexTable
from repro.core.config import ChiselConfig
from repro.core.flatpath import FlatSubCellPlan
from repro.faults import FaultInjector
from repro.prefix.prefix import Prefix
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.verify import apply_update, image_differences, keys_under
from repro.workloads import synthetic_table
from repro.workloads.traces import synthesize_trace


def build(seed, size=1500, backend="bloomier", purge_threshold=4096):
    table = synthetic_table(size, seed=seed)
    config = ChiselConfig(width=table.width, index_backend=backend)
    fib = ForwardingEngine.from_table(
        table, config=config, dirty_purge_threshold=purge_threshold)
    return table, fib, SnapshotRouter(fib)


class Checker:
    """Asserts the contract after every update it is told about."""

    def __init__(self, router, seed):
        self.router = router
        self.rng = random.Random(seed)
        self.changed = []
        self.checks = 0

    def __call__(self, prefix=None):
        if prefix is not None:
            self.changed.append(prefix)
        router = self.router
        assert image_differences(router) == []
        keys = keys_under(self.rng, router.width, 64, self.changed)
        scalar = router.fib.engine.lookup
        want = [-1 if scalar(key) is None else scalar(key) for key in keys]
        assert router.lookup_batch(keys).tolist() == want
        self.checks += 1


def grow_one_subcell(router, check, rng):
    """Announce fresh prefixes into the smallest sub-cell until it is
    rebuilt at twice the capacity; returns the announces it took."""
    engine = router.fib.engine
    target = min((cell for cell in engine.subcells if cell.base >= 8),
                 key=lambda cell: cell.capacity)
    position = engine.subcells.index(target)
    length = target.base  # each new value is a new collapsed bucket
    announced = 0
    while engine.subcells[position] is target:
        prefix = Prefix(rng.getrandbits(length), length, router.width)
        if engine.get_route(prefix) is not None:
            continue
        router.announce(prefix, "10.8.9.1", "eth1")
        check(prefix)
        announced += 1
    return announced


@pytest.mark.parametrize("backend", ["bloomier", "fuse"])
def test_served_image_equals_fresh_compile_after_every_update(backend):
    """Trace churn plus a forced re-setup, an absorbed setup failure, a
    sub-cell growth, purges and a scrub repair: after each update the
    image equals a fresh compile and answers like the scalar path."""
    table, fib, router = build(seed=61, size=1000, backend=backend,
                               purge_threshold=4)
    check = Checker(router, seed=61)
    rng = random.Random(61)
    trace = synthesize_trace(table, 120, seed=62)
    injector = FaultInjector(seed=63)
    for index, op in enumerate(trace):
        apply_update(router, op)
        check(op.prefix)
        if index == 20:
            # A singleton denied: the group is re-setup in place.
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(XorIndexTable, "try_insert",
                              lambda self, key, value: None)
                fresh = Prefix.from_string("203.0.113.0/24")
                router.announce(fresh, "10.8.1.1", "eth1")
                check(fresh)
        if index == 45:
            # A setup failure the router absorbs (maintenance + retry).
            with injector.force_setup_failure(times=1):
                fresh = Prefix.from_string("198.51.100.0/24")
                router.announce(fresh, "10.8.2.1", "eth2")
                check(fresh)
        if index == 60:
            # Withdraw table routes until the dirty threshold purges.
            for prefix, _hop in table:
                if fib.purges_run:
                    break
                router.withdraw(prefix)
                check(prefix)
        if index == 70:
            assert grow_one_subcell(router, check, rng) > 0
        if index == 95:
            assert injector.flip_table_bit(fib.engine) is not None
            report = router.scrub()
            assert report.healthy and report.total_repaired
            check()
    replans = router.metrics.replans
    assert fib.purges_run > 0
    assert router.metrics.setup_failures_absorbed == 1
    for reason in ("resetup", "grow", "purge", "scrub"):
        assert replans.get(reason, 0) > 0, (reason, replans)
    assert "unlogged" not in replans
    assert router.metrics.snapshots_compiled == 1  # the initial compile
    assert check.checks > len(trace)


def test_write_that_skips_the_log_is_recompiled_as_unlogged():
    """The safety net: a sub-cell whose ``words_written`` moved past its
    log is recompiled alone and counted, never served stale."""
    table, fib, router = build(seed=64, size=600)
    subcell = fib.engine.subcells[0]
    pointer = next(iter(subcell.buckets.values())).pointer
    subcell.bv_table[pointer] ^= 1  # a hardware write ...
    subcell.words_written += 1  # ... counted, but never logged
    router.announce("192.0.2.0/24", "10.8.3.1", "eth3")
    assert router.metrics.replans.get("unlogged") == 1
    assert image_differences(router) == []


def logged_names(engine):
    """How many writes the engine's logs name (None: no sub-cell logs)."""
    logs = [subcell.log for subcell in engine.subcells]
    if all(log is None for log in logs):
        return None
    return sum(len(log.rows) + len(log.results) + len(log.slots)
               for log in logs if log is not None)


def test_write_logs_stay_bounded():
    """Only an engine a serving image tracks keeps write logs; the
    router drains them on every update, a pickle carries none, and a
    tracked engine updated around its router caps each log at its
    sub-cell's capacity (``overflow``) instead of growing."""
    table = synthetic_table(800, seed=67)
    bare = ForwardingEngine.from_table(table)
    for op in synthesize_trace(table, 3000, seed=68):
        apply_update(bare, op)
    assert logged_names(bare.engine) is None
    assert bare.engine.words_written() > 0

    table, fib, router = build(seed=69, size=800)
    for op in synthesize_trace(table, 1000, seed=70):
        apply_update(router, op)
    assert logged_names(fib.engine) == 0
    assert logged_names(pickle.loads(pickle.dumps(fib)).engine) is None

    for op in synthesize_trace(table, 3000, seed=71):
        apply_update(fib, op)  # around the router: nothing drains
    logs = [(subcell, subcell.log) for subcell in fib.engine.subcells
            if subcell.log is not None]  # a grown sub-cell has none yet
    for subcell, log in logs:
        assert len(log.results) + len(log.slots) <= subcell.capacity
    assert any(log.replan == "overflow" for _subcell, log in logs)
    router.announce("192.0.2.0/24", "10.8.5.1", "eth5")
    assert router.metrics.replans.get("overflow", 0) > 0
    assert "unlogged" not in router.metrics.replans
    assert image_differences(router) == []


def test_arena_growth_patches_in_place():
    """Result-Table extensions land in the plan's geometric slack; they
    never force a sub-cell recompile."""
    table, fib, router = build(seed=65, size=600)
    engine = fib.engine
    rng = random.Random(65)
    patched = 0
    for _ in range(200):
        prefix = Prefix(rng.getrandbits(24), 24, 32)
        subcell = engine.subcell_for(prefix)
        arena = len(subcell.result.arena)
        replans = sum(router.metrics.replans.values())
        router.announce(prefix, "10.8.4.1", "eth4")
        if len(subcell.result.arena) > arena:
            patched += sum(router.metrics.replans.values()) == replans
    assert patched, "no arena growth landed as a plain patch"
    assert any(len(plan.arena) > plan.arena_size
               for plan in router._snapshot._plans)  # geometric slack
    assert image_differences(router) == []


def test_image_differences_reports_a_missing_front_bit():
    """The front table may hold bits a fresh compile lacks (they clear
    only on a replan), never the reverse: a missing bit hides a live
    bucket from every key under its word."""
    _table, _fib, router = build(seed=67, size=600)
    front = router._snapshot._front
    word = int(np.flatnonzero(front)[0])
    bit = int(front[word]) & -int(front[word])
    front[word] ^= bit
    assert any("front table lacks" in difference
               for difference in image_differences(router))
    front[word] ^= bit
    assert image_differences(router) == []
    spare = np.flatnonzero(front != np.iinfo(front.dtype).max)
    front[spare] = np.iinfo(front.dtype).max
    assert image_differences(router) == []


class TestSeqlockReaders:
    """A reader paused between two sub-cell plans, while a burst lands."""

    def _scenario(self, monkeypatch):
        table, fib, router = build(seed=66, size=1200)
        engine = fib.engine
        # A route answered by the first (longest-base) sub-cell, and a
        # key under it that no longer matches once it is withdrawn.
        rng = random.Random(66)
        first = engine.subcells[0]
        for prefix, _hop in table:
            if engine.subcell_for(prefix) is not first:
                continue
            free = table.width - prefix.length
            key = prefix.network_int() | (rng.getrandbits(free) if free
                                          else 0)
            if engine.lookup(key) is not None:
                break
        else:
            pytest.fail("no route in the first sub-cell")
        # Keys that miss everywhere reach the plans their front words
        # name; some reach the last non-empty one, where the reader
        # pauses.
        misses = [k for k in (rng.getrandbits(table.width)
                              for _ in range(4000))
                  if engine.lookup(k) is None][:64]
        keys = np.array([key] * 8 + misses, dtype=np.uint64)
        before = router.lookup_batch(keys)
        last = [plan for plan in router._snapshot._plans
                if plan.arena_size][-1]
        paused, release = threading.Event(), threading.Event()
        real_probe = FlatSubCellPlan.probe

        def pausing_probe(self, batch):
            if self is last and not paused.is_set():
                paused.set()
                release.wait(10)
            return real_probe(self, batch)

        monkeypatch.setattr(FlatSubCellPlan, "probe", pausing_probe)
        served = {}

        def reader():
            served["answers"] = router.lookup_batch(keys)

        thread = threading.Thread(target=reader)
        thread.start()
        assert paused.wait(10), "reader never reached the last plan"
        router.withdraw(prefix)  # the burst lands mid-batch
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        scalar = [engine.lookup(int(k)) for k in keys]
        want = [-1 if hop is None else hop for hop in scalar]
        return router, before, served["answers"], want

    def test_reader_overlapping_a_burst_retries(self, monkeypatch):
        router, before, answers, want = self._scenario(monkeypatch)
        assert before.tolist() != want, "the withdraw changed no answer"
        assert answers.tolist() == want
        assert router.metrics.read_retries == 1
