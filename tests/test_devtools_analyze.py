"""chisel-repro analyze: lock discipline, publish protocol, dtype flow.

Three kinds of coverage:

* unit tests of the annotation parsers and the lock-context machinery
  (nested ``with``, early returns, acquire/release, ``@contextmanager``
  lock helpers, inter-procedural entry contexts);
* per-pass positive/negative fixtures for every ANZ code;
* the two teeth anchors — frozen copies of the PR 2 rank-mask overflow
  and the PR 5 scrub-mid-export race under tests/fixtures/analyze/ —
  the tree-clean gate CI enforces, and a one-line break of the live
  tree per pass that src exercises.
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


def test_seqlock_pointer_comments_parse():
    source = "self._snapshot = None  # seqlock-pointer: _lock _version\n"
    assert parse_seqlock_comments(source) == {1: ("_lock", "_version")}


def test_catalog_is_sorted_and_complete():
    assert list(analysis_catalog()) == sorted(ANALYSIS_CATALOG)
    assert {code[:6] for code in ANALYSIS_CATALOG} <= {
        "ANZ101", "ANZ102", "ANZ203", "ANZ204", "ANZ205",
        "ANZ301", "ANZ302", "ANZ303", "ANZ304",
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
# ANZ203 — published views
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# dtype flow (ANZ301–ANZ304); scoped in by the module's numpy import
# ---------------------------------------------------------------------------

def dtype_codes(engine, body):
    source = "import numpy as np\n\n" + textwrap.dedent(body)
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


def test_dtype_pass_stays_out_of_modules_without_numpy(engine):
    source = textwrap.dedent("""\
        def mix(words):
            return words * np.uint64(0x9E3779B97F4A7C15)
    """)
    assert engine.analyze_source(source, "pkg/unrelated.py") == []


def test_dtype_pass_checks_any_module_that_imports_numpy(engine):
    """Scope comes from the import, not from a path list or a marker."""
    source = (FIXTURES / "pr2_rank_mask_overflow.py").read_text(
        encoding="utf-8")
    found = engine.analyze_source(source, "pkg/kernel.py")
    assert [v.code for v in found] == ["ANZ301"]


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


#: One-line breakages of the live tree: (file, anchor, old, new, code).
#: ``old`` is replaced at its first occurrence after ``anchor``.
LIVE_MUTATIONS = [
    pytest.param("repro/serve/snapshot.py", "def metrics_dict(",
                 "with self._lock:", "if True:", "ANZ101",
                 id="ANZ101-metrics-dict-unlocked"),
    pytest.param("repro/store/boot.py", "lookup = checkpoint.to_lookup()",
                 "lookup = checkpoint.to_lookup()",
                 "lookup = checkpoint.to_lookup(); lookup._plans[0] = None",
                 "ANZ203", id="ANZ203-boot-writes-published-view"),
    pytest.param("repro/serve/snapshot.py", "def _apply_burst(",
                 "self._version += 1", "pass", "ANZ205",
                 id="ANZ205-patch-without-version-bump"),
    pytest.param("repro/shard/codec.py", "def write_image_into(",
                 "count=array.size, ", "", "ANZ304",
                 id="ANZ304-unbounded-frombuffer"),
]


@pytest.mark.parametrize("relpath, anchor, old, new, code", LIVE_MUTATIONS)
def test_each_pass_fires_on_a_one_line_break_of_the_live_tree(
        engine, relpath, anchor, old, new, code):
    """A pass left with nothing to check in src fails here."""
    sources = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        name = path.relative_to(SRC_ROOT).as_posix()
        source = path.read_text(encoding="utf-8")
        if name == relpath:
            at = source.index(old, source.index(anchor))
            source = source[:at] + new + source[at + len(old):]
        sources.append((name, source))
    found = {(v.code, v.path) for v in engine.analyze_sources(sources)}
    assert (code, relpath) in found


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
    """Each worker's process and pipe are Optional: both are checked
    before use (the respawn scan, every send, every close)."""
    import inspect

    from repro.shard.coordinator import ShardCoordinator

    source = inspect.getsource(ShardCoordinator)
    assert "process is not None and process.is_alive()" in source
    assert "if pipe is not None:" in source
