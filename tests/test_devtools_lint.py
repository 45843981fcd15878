"""chisel-check lint engine: per-rule positive/negative/noqa fixtures."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    REGISTRY,
    LintEngine,
    format_json,
    format_text,
    parse_noqa,
    rule_catalog,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def engine():
    return LintEngine()


def codes(engine, source, path="pkg/module.py"):
    return [v.code for v in engine.lint_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# CHZ001 — unseeded / module-global randomness
# ---------------------------------------------------------------------------

def test_chz001_flags_module_global_random(engine):
    assert codes(engine, """\
        import random

        def pick(items):
            return items[random.randint(0, len(items) - 1)]
        """) == ["CHZ001"]


def test_chz001_flags_unseeded_random_instance(engine):
    assert codes(engine, """\
        import random

        rng = random.Random()
        """) == ["CHZ001"]


def test_chz001_flags_from_import_of_global_funcs(engine):
    assert codes(engine, """\
        from random import choice, shuffle
        """) == ["CHZ001"]


def test_chz001_allows_threaded_seeded_rng(engine):
    assert codes(engine, """\
        import random

        def build(seed):
            rng = random.Random(seed)
            return rng.random() + rng.getrandbits(8)
        """) == []


def test_chz001_noqa_suppresses(engine):
    assert codes(engine, """\
        import random

        def jitter():
            return random.random()  # chisel: noqa[CHZ001]
        """) == []


# ---------------------------------------------------------------------------
# CHZ002 — mutable default arguments
# ---------------------------------------------------------------------------

def test_chz002_flags_mutable_defaults(engine):
    assert codes(engine, """\
        def merge(base, extra=[], *, index={}):
            return base
        """) == ["CHZ002", "CHZ002"]


def test_chz002_flags_constructor_defaults(engine):
    assert codes(engine, """\
        def group(items, buckets=dict()):
            return buckets
        """) == ["CHZ002"]


def test_chz002_allows_none_default(engine):
    assert codes(engine, """\
        def merge(base, extra=None, flag=0, name="x"):
            extra = extra or []
            return base
        """) == []


def test_chz002_noqa_suppresses(engine):
    assert codes(engine, """\
        def merge(base, extra=[]):  # chisel: noqa[CHZ002]
            return base
        """) == []


# ---------------------------------------------------------------------------
# CHZ003 — float arithmetic in bit accounting
# ---------------------------------------------------------------------------

def test_chz003_flags_log2_in_bit_function(engine):
    assert codes(engine, """\
        import math

        def pointer_bits(count):
            return max(1, math.ceil(math.log2(count)))
        """) == ["CHZ003"]


def test_chz003_flags_division_and_float_literal(engine):
    found = codes(engine, """\
        def storage_bits(entries) -> int:
            return int(entries * 1.5 / 8)
        """)
    assert found.count("CHZ003") >= 2


def test_chz003_scopes_int_functions_in_sizing_module(engine):
    source = """\
        def headroom(entries) -> int:
            return int(entries / 8)
        """
    assert "CHZ003" in codes(engine, source, path="repro/core/sizing.py")
    # Same function outside a bit-accounting module: not scoped.
    assert codes(engine, source, path="repro/workloads/traces.py") == []


def test_chz003_allows_float_returning_helpers(engine):
    assert codes(engine, """\
        def total_mbits(self) -> float:
            return self.total_bits / 1_000_000

        def bytes_per_prefix(self, n) -> float:
            return self.total_bits / 8 / n
        """) == []


def test_chz003_allows_exact_integer_bit_math(engine):
    assert codes(engine, """\
        def pointer_bits(count: int) -> int:
            return max(1, (count - 1).bit_length()) if count > 1 else 1

        def storage_bits(self) -> int:
            return self.depth * self.width // 1
        """) == []


def test_chz003_noqa_suppresses(engine):
    assert codes(engine, """\
        def sample_bits(n) -> int:
            return int(n / 2)  # chisel: noqa[CHZ003]
        """) == []


# ---------------------------------------------------------------------------
# CHZ004 — assert as validation
# ---------------------------------------------------------------------------

def test_chz004_flags_assert(engine):
    assert codes(engine, """\
        def insert(self, key):
            assert key >= 0, "keys are unsigned"
            return key
        """) == ["CHZ004"]


def test_chz004_allows_raise(engine):
    assert codes(engine, """\
        def insert(self, key):
            if key < 0:
                raise ValueError("keys are unsigned")
            return key
        """) == []


def test_chz004_noqa_suppresses(engine):
    assert codes(engine, """\
        def insert(self, key):
            assert key >= 0  # chisel: noqa[CHZ004]
            return key
        """) == []


# ---------------------------------------------------------------------------
# CHZ005 — O(n) scans in hot lookup paths
# ---------------------------------------------------------------------------

HOT_PATH = "repro/core/subcell.py"


def test_chz005_flags_scan_in_lookup(engine):
    assert codes(engine, """\
        class SubCell:
            __slots__ = ()

            def lookup(self, key):
                for value in self.filter_table:
                    if value == key:
                        return value
                return None
        """, path=HOT_PATH) == ["CHZ005"]

    assert codes(engine, """\
        class SubCell:
            __slots__ = ()

            def lookup(self, key):
                for index, value in enumerate(self.filter_table):
                    if value == key:
                        return index
                return None
        """, path=HOT_PATH) == ["CHZ005"]


def test_chz005_flags_comprehension_and_range_scans(engine):
    assert codes(engine, """\
        class SubCell:
            __slots__ = ()

            def lookup(self, key):
                hits = [v for v, b in self.buckets.items() if v == key]
                for slot in range(self.capacity):
                    pass
                return hits
        """, path=HOT_PATH) == ["CHZ005", "CHZ005"]


def test_chz005_allows_scans_outside_hot_functions(engine):
    assert codes(engine, """\
        class SubCell:
            __slots__ = ()

            def rebuild(self):
                for value in self.filter_table:
                    pass

            def lookup(self, key):
                for cell in self.subcells:
                    pass
        """, path=HOT_PATH) == []


def test_chz005_guards_the_index_table_lookup(engine):
    """``XorIndexTable.lookup`` is the Index-Table read every key takes,
    for both backends; a full-table loop there is flagged."""
    path = SRC_ROOT / "repro" / "bloomier" / "backend.py"
    source = path.read_text(encoding="utf-8")
    at = source.index("def lookup(", source.index("class XorIndexTable"))
    loop = "for slot in self.neighborhood(key):"
    at = source.index(loop, at)
    scan = source[:at] + "for slot in range(self.num_slots):" + \
        source[at + len(loop):]
    assert engine.lint_source(source, "src/repro/bloomier/backend.py") == []
    assert [v.code for v in engine.lint_source(
        scan, "src/repro/bloomier/backend.py")] == ["CHZ005"]


def test_chz005_only_applies_to_hot_modules(engine):
    assert codes(engine, """\
        class Report:
            def lookup(self, key):
                for value in self.filter_table:
                    pass
        """, path="repro/analysis/report.py") == []


def test_chz005_noqa_suppresses(engine):
    assert codes(engine, """\
        class SubCell:
            __slots__ = ()

            def lookup(self, key):
                for value in self.filter_table:  # chisel: noqa[CHZ005]
                    pass
        """, path=HOT_PATH) == []


# ---------------------------------------------------------------------------
# CHZ006 — missing __slots__ on hot classes
# ---------------------------------------------------------------------------

SLOTS_PATH = "repro/core/bitvector.py"


def test_chz006_flags_missing_slots(engine):
    assert codes(engine, """\
        class Bucket:
            def __init__(self):
                self.bits = 0
        """, path=SLOTS_PATH) == ["CHZ006"]


def test_chz006_allows_slots_dataclass_and_exceptions(engine):
    assert codes(engine, """\
        from dataclasses import dataclass
        from enum import Enum

        class Bucket:
            __slots__ = ("bits",)

            def __init__(self):
                self.bits = 0

        @dataclass
        class Stats:
            hits: int = 0

        class BucketError(RuntimeError):
            pass

        class Kind(Enum):
            A = 1
        """, path=SLOTS_PATH) == []


def test_chz006_only_applies_to_hot_modules(engine):
    assert codes(engine, """\
        class Report:
            def __init__(self):
                self.rows = []
        """, path="repro/analysis/report.py") == []


def test_chz006_noqa_suppresses(engine):
    assert codes(engine, """\
        class Bucket:  # chisel: noqa[CHZ006]
            def __init__(self):
                self.bits = 0
        """, path=SLOTS_PATH) == []


# ---------------------------------------------------------------------------
# CHZ007 — ServeMetrics constructed outside repro.serve
# ---------------------------------------------------------------------------

def test_chz007_flags_construction_outside_serve(engine):
    assert codes(engine, """\
        from repro.serve.metrics import ServeMetrics

        def snapshot_stats():
            return ServeMetrics()
        """, path="repro/analysis/report.py") == ["CHZ007"]


def test_chz007_allows_construction_inside_serve(engine):
    source = """\
        class SnapshotRouter:
            def __init__(self):
                self.metrics = ServeMetrics()
        """
    assert codes(engine, source, path="repro/serve/snapshot.py") == []
    assert codes(engine, source, path="serve/snapshot.py") == []


def test_chz007_allows_reads_without_construction(engine):
    assert codes(engine, """\
        def report(router):
            return router.metrics.snapshots_compiled
        """, path="repro/analysis/report.py") == []


def test_chz007_noqa_suppresses(engine):
    assert codes(engine, """\
        metrics = ServeMetrics()  # chisel: noqa[CHZ007]
        """, path="repro/analysis/report.py") == []


# ---------------------------------------------------------------------------
# CHZ008 — broad except: pass inside repro
# ---------------------------------------------------------------------------

def test_chz008_flags_except_exception_pass(engine):
    assert codes(engine, """\
        def drain(queue):
            try:
                queue.pop()
            except Exception:
                pass
        """, path="repro/serve/snapshot.py") == ["CHZ008"]


def test_chz008_flags_bare_except_and_broad_tuple(engine):
    assert codes(engine, """\
        def drain(queue):
            try:
                queue.pop()
            except:
                pass
            try:
                queue.pop()
            except (ValueError, BaseException):
                pass
        """, path="repro/core/chisel.py") == ["CHZ008", "CHZ008"]


def test_chz008_allows_narrow_types_and_handled_bodies(engine):
    assert codes(engine, """\
        def drain(queue):
            try:
                queue.pop()
            except IndexError:
                pass
            try:
                queue.pop()
            except Exception as error:
                record(error)
        """, path="repro/core/chisel.py") == []


def test_chz008_scoped_to_repro_source(engine):
    assert codes(engine, """\
        try:
            probe()
        except Exception:
            pass
        """, path="examples/demo.py") == []


def test_chz008_noqa_suppresses(engine):
    assert codes(engine, """\
        try:
            probe()
        except Exception:  # chisel: noqa[CHZ008]
            pass
        """, path="repro/core/chisel.py") == []


# ---------------------------------------------------------------------------
# CHZ009 — wall-clock time.time() used for durations inside repro
# ---------------------------------------------------------------------------

def test_chz009_flags_time_time_call(engine):
    assert codes(engine, """\
        import time

        def age(compiled_at):
            return time.time() - compiled_at
        """, path="repro/serve/snapshot.py") == ["CHZ009"]


def test_chz009_flags_from_time_import_time(engine):
    assert codes(engine, """\
        from time import time
        """, path="repro/shard/coordinator.py") == ["CHZ009"]


def test_chz009_allows_monotonic_and_perf_counter(engine):
    assert codes(engine, """\
        import time

        def measure():
            started = time.perf_counter()
            deadline = time.monotonic() + 5.0
            return started, deadline
        """, path="repro/serve/snapshot.py") == []


def test_chz009_scoped_to_repro_source(engine):
    assert codes(engine, """\
        import time

        def now():
            return time.time()
        """, path="examples/demo.py") == []


def test_chz009_noqa_suppresses(engine):
    assert codes(engine, """\
        import time

        def wall_clock_stamp():
            return time.time()  # chisel: noqa[CHZ009]
        """, path="repro/obs/registry.py") == []


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------

def test_blanket_noqa_suppresses_all_codes(engine):
    assert codes(engine, """\
        def merge(base, extra=[]):  # chisel: noqa
            return base
        """) == []


def test_parse_noqa_extracts_codes():
    pragmas = parse_noqa(
        "x = 1  # chisel: noqa[CHZ001, CHZ004]\ny = 2\nz = 3  # chisel: noqa\n"
    )
    assert pragmas == {1: frozenset({"CHZ001", "CHZ004"}), 3: None}


def test_syntax_error_reported_as_chz000(engine):
    found = engine.lint_source("def broken(:\n", "bad.py")
    assert [v.code for v in found] == ["CHZ000"]


def test_lint_paths_walks_directories(engine, tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "ok.py").write_text("VALUE = 1\n")
    (package / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
    (package / "notes.txt").write_text("not python")
    found = engine.lint_paths([str(tmp_path)])
    assert [v.code for v in found] == ["CHZ002"]
    assert found[0].path.endswith("bad.py")


def test_reporters_text_and_json(engine):
    found = engine.lint_source("def f(xs=[]):\n    return xs\n", "mod.py")
    text = format_text(found)
    assert "mod.py:1" in text and "CHZ002" in text
    payload = json.loads(format_json(found))
    assert payload["count"] == 1
    assert payload["violations"][0]["code"] == "CHZ002"
    assert format_text([]) == "chisel-check: no violations"


def test_rule_catalog_covers_all_registered_codes():
    catalog = dict(rule_catalog())
    assert set(catalog) == set(REGISTRY)
    assert {"CHZ001", "CHZ002", "CHZ003", "CHZ004", "CHZ005", "CHZ006",
            "CHZ007", "CHZ008"} <= set(catalog)
    assert all(summary for summary in catalog.values())


# ---------------------------------------------------------------------------
# the acceptance gate: the shipped tree lints clean
# ---------------------------------------------------------------------------

def test_shipped_source_tree_is_lint_clean(engine):
    violations = engine.lint_paths([str(SRC_ROOT)])
    assert violations == [], format_text(violations)


def test_cli_check_lint_exit_codes(tmp_path, capsys):
    from repro.cli import main

    assert main(["check", "--lint", str(SRC_ROOT)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    assert main(["check", "--lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "CHZ002" in out


def test_cli_check_lint_json(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.seed(1)\n")
    assert main(["check", "--lint", "--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["lint"]["count"] == 1
    assert payload["lint"]["violations"][0]["code"] == "CHZ001"
