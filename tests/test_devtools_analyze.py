"""chisel-repro analyze: lock discipline, publish protocol, dtype flow.

Three kinds of coverage:

* unit tests of the annotation parsers and the lock-context machinery
  (nested ``with``, early returns, acquire/release, ``@contextmanager``
  lock helpers, inter-procedural entry contexts);
* per-pass positive/negative fixtures for every ANZ code;
* the two teeth anchors — frozen copies of the PR 2 rank-mask overflow
  and the PR 5 scrub-mid-export race under tests/fixtures/analyze/ —
  plus the tree-clean gate CI enforces.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.analyze import (
    ANALYSIS_CATALOG,
    AnalysisEngine,
    analysis_catalog,
)
from repro.devtools.analyze.model import (
    parse_guard_comments,
    parse_rcu_comments,
    parse_scope_markers,
    parse_seqlock_comments,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analyze"


@pytest.fixture
def engine():
    return AnalysisEngine()


def codes(engine, source, path="pkg/module.py"):
    return [v.code for v in engine.analyze_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# annotation parsing
# ---------------------------------------------------------------------------

def test_guarded_by_comments_parse_line_numbers():
    source = textwrap.dedent("""\
        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._value = 0  # guarded-by: _lock
                self._gauge = 0  # guarded-by: single-writer
                self._other = 0  # guarded-by: external
        """)
    assert parse_guard_comments(source) == {
        4: "_lock", 5: "single-writer", 6: "external",
    }


def test_rcu_pointer_comments_parse():
    source = "self._snapshot = None  # rcu-pointer: _lock (swapped whole)\n"
    assert parse_rcu_comments(source) == {1: "_lock"}


def test_seqlock_pointer_comments_parse():
    source = "self._snapshot = None  # seqlock-pointer: _lock _version\n"
    assert parse_seqlock_comments(source) == {1: ("_lock", "_version")}


def test_scope_marker_parses_only_in_header():
    marked = "# chisel-analyze-scope: dtype\nx = 1\n"
    assert parse_scope_markers(marked) == frozenset({"dtype"})
    late = ("\n" * 20) + "# chisel-analyze-scope: dtype\n"
    assert parse_scope_markers(late) == frozenset()


def test_catalog_is_sorted_and_complete():
    assert list(analysis_catalog()) == sorted(ANALYSIS_CATALOG)
    assert {code[:6] for code in ANALYSIS_CATALOG} <= {
        "ANZ101", "ANZ102", "ANZ201", "ANZ202", "ANZ203", "ANZ204",
        "ANZ205", "ANZ301", "ANZ302", "ANZ303", "ANZ304",
    }


# ---------------------------------------------------------------------------
# ANZ101 — lock discipline
# ---------------------------------------------------------------------------

def test_anz101_flags_unguarded_access(engine):
    source = """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock

            def bump(self):
                self._count += 1
    """
    assert codes(engine, source) == ["ANZ101"]


def test_anz101_allows_with_lock(engine):
    source = """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self._count += 1
    """
    assert codes(engine, source) == []


def test_anz101_allows_acquire_release(engine):
    source = """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock

            def bump(self):
                self._lock.acquire()
                try:
                    self._count += 1
                finally:
                    self._lock.release()
    """
    assert codes(engine, source) == []


def test_anz101_flags_access_after_early_with_exit(engine):
    source = """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self._count += 1
                return self._count
    """
    assert codes(engine, source) == ["ANZ101"]


def test_anz101_entry_context_through_private_helper(engine):
    """A private helper only ever called under the lock inherits it."""
    source = """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self._bump_locked()

            def _bump_locked(self):
                self._count += 1
    """
    assert codes(engine, source) == []


def test_anz101_helper_also_called_unlocked_is_flagged(engine):
    source = """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self._bump_locked()

            def bump_unsafe(self):
                self._bump_locked()

            def _bump_locked(self):
                self._count += 1
    """
    assert codes(engine, source) == ["ANZ101"]


def test_anz101_contextmanager_lock_helper_resolves(engine):
    """``with self._held():`` counts as holding the lock the cm takes."""
    source = """\
        import threading
        from contextlib import contextmanager

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock

            @contextmanager
            def _held(self):
                with self._lock:
                    yield

            def bump(self):
                with self._held():
                    self._count += 1
    """
    assert codes(engine, source) == []


def test_anz101_public_methods_assume_no_lock(engine):
    source = """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock

            def peek(self):
                return self._count
    """
    assert codes(engine, source) == ["ANZ101"]


def test_anz101_single_writer_free_within_class(engine):
    source = """\
        class Coordinator:
            def __init__(self):
                self._generation = 0  # guarded-by: single-writer

            def publish(self):
                self._generation += 1
    """
    assert codes(engine, source) == []


def test_anz101_single_writer_cross_object_flagged(engine):
    source = """\
        class Coordinator:
            def __init__(self):
                self._generation = 0  # guarded-by: single-writer

        class Meddler:
            def __init__(self, coordinator: Coordinator):
                self.coordinator = coordinator

            def poke(self):
                self.coordinator._generation += 1
    """
    assert codes(engine, source) == ["ANZ101"]


def test_anz101_external_needs_some_lock_cross_object(engine):
    source = """\
        import threading

        class Engine:
            def __init__(self):
                self.stats = 0  # guarded-by: external

        class Router:
            def __init__(self, engine: Engine):
                self._lock = threading.Lock()
                self.engine = engine

            def bad(self):
                return self.engine.stats

            def good(self):
                with self._lock:
                    return self.engine.stats
    """
    assert codes(engine, source) == ["ANZ101"]


# ---------------------------------------------------------------------------
# ANZ102 — lock ordering
# ---------------------------------------------------------------------------

def test_anz102_flags_inverted_order(engine):
    source = """\
        import threading

        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
    """
    assert codes(engine, source) == ["ANZ102"]


def test_anz102_consistent_order_clean(engine):
    source = """\
        import threading

        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def one(self):
                with self._a:
                    with self._b:
                        pass

            def two(self):
                with self._a:
                    with self._b:
                        pass
    """
    assert codes(engine, source) == []


# ---------------------------------------------------------------------------
# ANZ201 — seqlock protocol
# ---------------------------------------------------------------------------

SEQLOCK_PREAMBLE = """\
    import numpy as np

    _SEQUENCE = 2
    _GENERATION = 1
    _PAYLOAD = 5

    class Block:
        def __init__(self, shm):
            self._shm = shm
            self._words = np.frombuffer(shm.buf, dtype=np.uint64, count=8)

"""


def test_anz201_accepts_bracketed_publish(engine):
    source = SEQLOCK_PREAMBLE + textwrap.indent(textwrap.dedent("""\
        def publish(self, generation):
            self._words[_SEQUENCE] += np.uint64(1)
            self._words[_PAYLOAD] = np.uint64(7)
            self._words[_GENERATION] = generation
            self._words[_SEQUENCE] += np.uint64(1)
    """), "        ")
    assert codes(engine, source) == []


def test_anz201_flags_generation_before_payload(engine):
    source = SEQLOCK_PREAMBLE + textwrap.indent(textwrap.dedent("""\
        def publish(self, generation):
            self._words[_SEQUENCE] += np.uint64(1)
            self._words[_GENERATION] = generation
            self._words[_PAYLOAD] = np.uint64(7)
            self._words[_SEQUENCE] += np.uint64(1)
    """), "        ")
    assert codes(engine, source) == ["ANZ201"]


def test_anz201_flags_store_outside_window(engine):
    source = SEQLOCK_PREAMBLE + textwrap.indent(textwrap.dedent("""\
        def publish(self, generation):
            self._words[_SEQUENCE] += np.uint64(1)
            self._words[_GENERATION] = generation
            self._words[_SEQUENCE] += np.uint64(1)

        def sneak(self, generation):
            self._words[_GENERATION] = generation
    """), "        ")
    assert codes(engine, source) == ["ANZ201"]


# ---------------------------------------------------------------------------
# ANZ202 / ANZ203 — RCU pointer and published views
# ---------------------------------------------------------------------------

RCU_PREAMBLE = """\
    import threading

    class Router:
        def __init__(self):
            self._lock = threading.Lock()
            self._snapshot = None  # rcu-pointer: _lock

"""


def test_anz202_accepts_single_assignment_swap(engine):
    source = RCU_PREAMBLE + textwrap.indent(textwrap.dedent("""\
        def swap(self, fresh):
            with self._lock:
                self._snapshot = fresh
    """), "        ")
    assert codes(engine, source) == []


def test_anz202_flags_in_place_mutation(engine):
    source = RCU_PREAMBLE + textwrap.indent(textwrap.dedent("""\
        def patch(self, plan):
            with self._lock:
                self._snapshot.plans = plan
    """), "        ")
    assert codes(engine, source) == ["ANZ202"]


def test_anz202_flags_non_trivial_swap(engine):
    source = RCU_PREAMBLE + textwrap.indent(textwrap.dedent("""\
        def swap(self, fresh):
            with self._lock:
                self._snapshot = fresh.compile()
    """), "        ")
    assert codes(engine, source) == ["ANZ202"]


def test_anz202_flags_foreign_assignment(engine):
    source = RCU_PREAMBLE + textwrap.indent(textwrap.dedent("""\
        def swap(self, fresh):
            with self._lock:
                self._snapshot = fresh
    """), "        ") + textwrap.indent(textwrap.dedent("""\

        class Meddler:
            def __init__(self, router: Router):
                self.router = router

            def clobber(self):
                with self.router._lock:
                    self.router._snapshot = None
    """), "    ")
    assert codes(engine, source) == ["ANZ202"]


def test_anz203_flags_mutating_published_view(engine):
    source = """\
        class Worker:
            def serve(self, segment):
                lookup = segment.to_lookup()
                lookup.plans[0] = None
    """
    assert codes(engine, source) == ["ANZ203"]


def test_anz203_tells_a_private_copy_from_the_view(engine):
    """A worker writes word bursts into a private copy of a segment
    table; only a store through the view itself is flagged."""
    source = """\
        class Worker:
            def apply(self, segment, entry, rows, values):
                view = segment._array_view(entry)
                private = view.copy()
                private[rows] = values
                view[rows] = values
    """
    found = engine.analyze_source(textwrap.dedent(source), "pkg/module.py")
    assert [(v.code, v.line) for v in found] == [("ANZ203", 6)]


def test_anz203_allows_read_and_writeable_seal(engine):
    source = """\
        class Worker:
            def serve(self, segment):
                lookup = segment.to_lookup()
                lookup.flags.writeable = False
                return lookup.plans
    """
    assert codes(engine, source) == []


# ---------------------------------------------------------------------------
# ANZ204 — export/install quiescence fence
# ---------------------------------------------------------------------------

def test_anz204_flags_unfenced_install(engine):
    source = """\
        class Publisher:
            def publish(self, snapshot):
                segment = SharedSnapshot.export(snapshot, 1)
                self._install(segment)
    """
    assert codes(engine, source) == ["ANZ204"]


def test_anz204_accepts_words_written_recheck(engine):
    source = """\
        class Publisher:
            def publish(self, snapshot, engine, before):
                segment = SharedSnapshot.export(snapshot, 1)
                if engine.words_written() != before:
                    return None
                self._install(segment)
    """
    assert codes(engine, source) == []


# ---------------------------------------------------------------------------
# ANZ205 — seqlock pointer: patch in place inside a version window
# ---------------------------------------------------------------------------

SEQLOCK_POINTER_PREAMBLE = """\
    import threading

    class Router:
        def __init__(self):
            self._lock = threading.Lock()
            self._version = 0  # guarded-by: _lock
            self._snapshot = None  # seqlock-pointer: _lock _version

"""


def seqlock_source(body):
    return SEQLOCK_POINTER_PREAMBLE + textwrap.indent(textwrap.dedent(body),
                                              "        ")


def test_anz205_accepts_patch_after_bump_under_lock(engine):
    source = seqlock_source("""\
        def update(self):
            with self._lock:
                self._version += 1
                self._snapshot.patch()
                self._snapshot.arena_size = 3
    """)
    assert codes(engine, source) == []


def test_anz205_accepts_private_helper_called_under_lock(engine):
    source = seqlock_source("""\
        def update(self):
            with self._lock:
                self._apply()

        def _apply(self):
            self._version += 1
            image = self._snapshot
            image.patch()
    """)
    assert codes(engine, source) == []


def test_anz205_flags_patch_without_bump(engine):
    source = seqlock_source("""\
        def update(self):
            with self._lock:
                self._snapshot.patch()
    """)
    assert codes(engine, source) == ["ANZ205"]


def test_anz205_flags_store_through_alias_without_bump(engine):
    source = seqlock_source("""\
        def update(self, rows):
            with self._lock:
                image, version = self._snapshot, self._version
                image.bitvectors[rows] = 0
    """)
    assert codes(engine, source) == ["ANZ205"]


def test_anz205_flags_patch_outside_lock(engine):
    source = seqlock_source("""\
        def update(self):
            with self._lock:
                self._version += 1
            self._snapshot.patch()
    """)
    # The unlocked read of the pointer is ANZ101's; the patch is ANZ205's.
    assert sorted(codes(engine, source)) == ["ANZ101", "ANZ205"]


def test_anz205_leaves_rcu_pointers_to_anz202(engine):
    source = RCU_PREAMBLE + textwrap.indent(textwrap.dedent("""\
        def patch(self):
            with self._lock:
                self._snapshot.patch()
                self._snapshot.plans = []
    """), "        ")
    assert codes(engine, source) == ["ANZ202"]


# ---------------------------------------------------------------------------
# dtype flow (ANZ301–ANZ304); scoped in via the file marker
# ---------------------------------------------------------------------------

def dtype_codes(engine, body):
    source = "# chisel-analyze-scope: dtype\nimport numpy as np\n\n" + \
        textwrap.dedent(body)
    return [v.code for v in engine.analyze_source(source, "pkg/module.py")]


def test_anz301_flags_width_reaching_shift(engine):
    assert dtype_codes(engine, """\
        def mask(keys):
            expansion = keys & np.uint64(63)
            return (np.uint64(1) << (expansion + np.uint64(1))) - np.uint64(1)
    """) == ["ANZ301"]


def test_anz301_clean_when_bound_stays_below_width(engine):
    assert dtype_codes(engine, """\
        def mask(keys):
            expansion = keys & np.uint64(63)
            return np.uint64(1) << expansion
    """) == []


def test_anz301_two_step_mask_idiom_is_clean(engine):
    assert dtype_codes(engine, """\
        def mask(keys):
            expansion = keys & np.uint64(63)
            bit = np.uint64(1) << expansion
            return bit | (bit - np.uint64(1))
    """) == []


def test_anz302_flags_unbounded_uint64_product(engine):
    assert dtype_codes(engine, """\
        def mix(words, keys):
            return words * np.uint64(0x9E3779B97F4A7C15)
    """) == ["ANZ302"]


def test_anz302_clean_when_product_provably_fits(engine):
    assert dtype_codes(engine, """\
        def scale(keys):
            small = keys & np.uint64(0xFFFF)
            return small * np.uint64(3)
    """) == []


def test_anz303_flags_mixed_sign_promotion(engine):
    assert dtype_codes(engine, """\
        def adjust(count):
            return np.uint64(count) + np.int64(-1)
    """) == ["ANZ303"]


def test_anz304_flags_frombuffer_without_count(engine):
    assert dtype_codes(engine, """\
        def attach(shm):
            return np.frombuffer(shm.buf, dtype=np.uint64)
    """) == ["ANZ304"]


def test_anz304_accepts_explicit_count(engine):
    assert dtype_codes(engine, """\
        def attach(shm):
            return np.frombuffer(shm.buf, dtype=np.uint64, count=8)
    """) == []


def test_dtype_pass_stays_out_of_unscoped_modules(engine):
    source = textwrap.dedent("""\
        import numpy as np

        def mix(words):
            return words * np.uint64(0x9E3779B97F4A7C15)
    """)
    assert engine.analyze_source(source, "pkg/unrelated.py") == []


# ---------------------------------------------------------------------------
# suppression
# ---------------------------------------------------------------------------

def test_noqa_suppresses_a_finding(engine):
    assert dtype_codes(engine, """\
        def mix(words):
            return words * np.uint64(0x9E3779B97F4A7C15)  # chisel: noqa[ANZ302]
    """) == []


def test_noqa_with_other_code_does_not_suppress(engine):
    assert dtype_codes(engine, """\
        def mix(words):
            return words * np.uint64(0x9E3779B97F4A7C15)  # chisel: noqa[ANZ301]
    """) == ["ANZ302"]


# ---------------------------------------------------------------------------
# teeth: the PR 2 and PR 5 regression anchors, and the tree-clean gate
# ---------------------------------------------------------------------------

def test_pr2_fixture_yields_exactly_the_rank_mask_overflow(engine):
    violations = engine.analyze_paths(
        [str(FIXTURES / "pr2_rank_mask_overflow.py")])
    assert [v.code for v in violations] == ["ANZ301"]


def test_pr5_fixture_yields_exactly_the_unfenced_install(engine):
    violations = engine.analyze_paths(
        [str(FIXTURES / "pr5_scrub_mid_export.py")])
    assert [v.code for v in violations] == ["ANZ204"]


def test_source_tree_has_zero_unsuppressed_findings(engine):
    violations = engine.analyze_paths([str(SRC_ROOT)])
    assert violations == [], "\n".join(v.format() for v in violations)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
    )


def test_cli_analyze_clean_tree_exits_zero():
    proc = run_cli("analyze", "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no violations" in proc.stdout


def test_cli_analyze_json_reports_fixture_finding():
    proc = run_cli(
        "analyze", "--json",
        str(FIXTURES / "pr2_rank_mask_overflow.py"),
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["count"] == 1
    assert payload["violations"][0]["code"] == "ANZ301"
    assert "ANZ301" in payload["catalog"]


# ---------------------------------------------------------------------------
# the five real findings this PR fixed stay fixed (fail-before anchors)
# ---------------------------------------------------------------------------

def test_fixed_metrics_dict_reads_gauges_under_lock(engine):
    """The pre-fix shape — gauge reads outside the lock — is flagged."""
    source = """\
        import threading

        class Router:
            def __init__(self):
                self._lock = threading.Lock()
                self._state = 0  # guarded-by: _lock
                self._overlay_size = 0  # guarded-by: _lock

            def metrics_dict(self):
                return {
                    "state": self._state,
                    "overlay": self._overlay_size,
                }

            def transition(self):
                with self._lock:
                    self._state = 1
                    self._overlay_size = 2
    """
    assert codes(engine, source) == ["ANZ101", "ANZ101"]


def test_fixed_worker_runtime_returns_lookup():
    """attach hands back the lookup; no Optional dereference."""
    import inspect

    from repro.shard.worker import _WorkerRuntime, worker_main

    signature = inspect.signature(_WorkerRuntime.attach)
    assert "SharedBatchLookup" in str(signature.return_annotation)
    assert "runtime.lookup.lookup_batch" not in inspect.getsource(worker_main)


def test_fixed_coordinator_guards_optional_process():
    import inspect

    from repro.shard.coordinator import ShardCoordinator

    source = inspect.getsource(ShardCoordinator._collect_batch) \
        if hasattr(ShardCoordinator, "_collect_batch") \
        else inspect.getsource(ShardCoordinator)
    assert "process is None or not process.is_alive()" in source
