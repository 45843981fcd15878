"""The Chisel lint rules, CHZ001–CHZ009.

Each rule is a small :class:`ast.NodeVisitor` pass registered under a
stable code.  The rules encode coding invariants the Chisel construction
depends on:

* CHZ001 — randomness must be threaded as seeded ``random.Random``
  instances (the Bloomier hash matrices are part of the *encoded image*;
  an unseeded or module-global RNG makes setups irreproducible).
* CHZ002 — no mutable default arguments.
* CHZ003 — bit accounting is exact integer math; ``/``, float literals,
  and ``math.log2`` have no place in functions that return bit counts
  (``math.ceil(math.log2(n))`` silently under-counts near 2**49+).
* CHZ004 — ``assert`` is not input validation (stripped under ``-O``).
* CHZ005 — hot lookup paths in ``repro.core``/``repro.bloomier`` stay
  O(1): no full-table scans.
* CHZ006 — hot per-bucket/per-slot classes declare ``__slots__``.
* CHZ007 — ``ServeMetrics`` is constructed only inside ``repro.serve``;
  everyone else reads serving counters from the ``repro.obs`` registry.
* CHZ008 — no broad ``except: pass`` inside ``repro``: a swallowed
  exception is an undetected fault, the exact failure mode the
  ``repro.faults`` layer exists to make visible.
* CHZ009 — no ``time.time()`` inside ``repro``: wall-clock jumps under
  NTP steps; every measured interval (lock holds, staleness, batch
  latency, deadlines) uses ``time.monotonic()``/``time.perf_counter()``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Type

if TYPE_CHECKING:
    from .engine import Violation

# Imported lazily by the engine module to avoid a cycle at class level.
REGISTRY: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    """Add a rule class to the global registry, keyed by its code."""
    if cls.code in REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List["Rule"]:
    """One instance of every registered rule, in code order."""
    return [REGISTRY[code]() for code in sorted(REGISTRY)]


def rule_catalog() -> List[Tuple[str, str]]:
    """(code, summary) pairs for docs and ``--help`` output."""
    return [(code, REGISTRY[code].summary) for code in sorted(REGISTRY)]


class Rule:
    """Base class: subclasses set ``code``/``summary`` and yield hits."""

    code: str = "CHZ000"
    summary: str = ""
    #: Path suffixes this rule is restricted to; empty means every file.
    modules: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        return not self.modules or any(path.endswith(m) for m in self.modules)

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        """Return the rule's violations for one parsed module."""
        raise NotImplementedError

    def _violation(self, node: ast.AST, path: str, message: str) -> "Violation":
        from .engine import Violation

        return Violation(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


def _name_of(node: ast.AST) -> str:
    """The dotted-tail identifier of a Name/Attribute, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_self_attr(node: ast.AST, names: Sequence[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in names
    )


# ---------------------------------------------------------------------------
# CHZ001 — unseeded / module-global randomness
# ---------------------------------------------------------------------------

#: Module-level functions of ``random`` that draw from the shared global RNG.
GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "seed", "getrandbits", "randbytes", "uniform", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "gammavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate",
})


@register
class UnseededRandomRule(Rule):
    code = "CHZ001"
    summary = ("unseeded or module-global random use; thread a seeded "
               "random.Random explicitly")

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        violations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [alias.name for alias in node.names
                       if alias.name in GLOBAL_RANDOM_FUNCS]
                if bad:
                    violations.append(self._violation(
                        node, path,
                        f"importing module-global random function(s) "
                        f"{', '.join(sorted(bad))} — thread a seeded "
                        f"random.Random instance instead",
                    ))
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "random"):
                    if func.attr in GLOBAL_RANDOM_FUNCS:
                        violations.append(self._violation(
                            node, path,
                            f"module-global random.{func.attr}() shares "
                            f"hidden state — thread a seeded random.Random "
                            f"through the call chain",
                        ))
                    elif (func.attr == "Random" and not node.args
                          and not node.keywords):
                        violations.append(self._violation(
                            node, path,
                            "unseeded random.Random() — hash matrices must "
                            "be reproducible; pass an explicit seed",
                        ))
                elif (isinstance(func, ast.Name) and func.id == "Random"
                      and not node.args and not node.keywords):
                    violations.append(self._violation(
                        node, path,
                        "unseeded Random() — hash matrices must be "
                        "reproducible; pass an explicit seed",
                    ))
        return violations


# ---------------------------------------------------------------------------
# CHZ002 — mutable default arguments
# ---------------------------------------------------------------------------

MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _name_of(node.func) in MUTABLE_CONSTRUCTORS
    return False


@register
class MutableDefaultRule(Rule):
    code = "CHZ002"
    summary = "mutable default argument shared across calls"

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    violations.append(self._violation(
                        default, path,
                        f"mutable default in {node.name}() is shared across "
                        f"calls — default to None and create inside",
                    ))
        return violations


# ---------------------------------------------------------------------------
# CHZ003 — float arithmetic in bit accounting
# ---------------------------------------------------------------------------

#: Modules where *every* ``-> int`` function is treated as bit accounting.
BIT_ACCOUNTING_MODULES = (
    "core/sizing.py",
    "analysis/storage.py",
)

FLOAT_FUNCS = frozenset({"log", "log2", "float"})


def _annotation_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - very old ASTs only
        return ""


def _returns_ints(func: ast.FunctionDef) -> bool:
    """True if the return annotation is int / Dict[str, int] / missing."""
    if func.returns is None:
        return True
    text = _annotation_text(func.returns).replace(" ", "")
    return text == "int" or text in ("Dict[str,int]", "dict[str,int]")


def _name_has_bit_token(name: str) -> bool:
    return bool({"bit", "bits"} & set(name.lower().split("_")))


@register
class FloatBitArithmeticRule(Rule):
    code = "CHZ003"
    summary = ("float arithmetic in bit-accounting code; use exact integer "
               "ops (//, bit_length)")

    def _scoped(self, func: ast.FunctionDef, path: str) -> bool:
        if not _returns_ints(func):
            return False
        if _name_has_bit_token(func.name):
            return True
        in_module = any(path.endswith(m) for m in BIT_ACCOUNTING_MODULES)
        annotated_int = (
            func.returns is not None
            and _annotation_text(func.returns) == "int"
        )
        return in_module and annotated_int

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        violations = []
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._scoped(func, path):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    violations.append(self._violation(
                        node, path,
                        f"true division in bit-accounting function "
                        f"{func.name}() — use // (exact integer math)",
                    ))
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, float)):
                    violations.append(self._violation(
                        node, path,
                        f"float literal {node.value!r} in bit-accounting "
                        f"function {func.name}() — bit counts are exact ints",
                    ))
                elif (isinstance(node, ast.Call)
                      and _name_of(node.func) in FLOAT_FUNCS):
                    violations.append(self._violation(
                        node, path,
                        f"{_name_of(node.func)}() in bit-accounting function "
                        f"{func.name}() goes through floats — use "
                        f"int.bit_length() instead",
                    ))
        return violations


# ---------------------------------------------------------------------------
# CHZ004 — assert as input validation in library code
# ---------------------------------------------------------------------------

@register
class AssertValidationRule(Rule):
    code = "CHZ004"
    summary = "assert used for validation in library code (stripped under -O)"

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        return [
            self._violation(
                node, path,
                "assert is stripped under python -O — raise "
                "ValueError/TypeError for validation",
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]


# ---------------------------------------------------------------------------
# CHZ005 — O(n) scans on designated hot lookup paths
# ---------------------------------------------------------------------------

#: Function names that form the per-packet lookup datapath.
HOT_FUNCTIONS = frozenset({"lookup", "lookup_with_subcell", "collapse_key"})

#: ``self.<attr>`` names holding full hardware tables / shadow maps whose
#: length scales with the number of stored keys.
FULL_TABLE_ATTRS = frozenset({
    "filter_table", "dirty_table", "bv_table", "region_ptr", "region_block",
    "buckets", "originals", "arena", "shadow", "table",
    "_table", "_refcount", "_shadow", "_entries", "_free_pointers",
})

#: ``self.<attr>`` scalars whose value is a full table depth.
TABLE_DEPTH_ATTRS = frozenset({"capacity", "num_slots", "total_slots"})

#: Packages holding the datapath: every module under them is checked.
HOT_PACKAGES = ("repro/core/", "repro/bloomier/")


def _is_table_iter(node: ast.AST) -> bool:
    """Does this expression iterate/measure a full table?"""
    if _is_self_attr(node, FULL_TABLE_ATTRS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        # self.table.items() / .values() / .keys()
        if (isinstance(func, ast.Attribute)
                and func.attr in ("items", "values", "keys")
                and _is_self_attr(func.value, FULL_TABLE_ATTRS)):
            return True
        # range(...) sized by a table depth, or len(self.table)
        if _name_of(func) == "range":
            return any(_mentions_table_depth(arg) for arg in node.args)
        if _name_of(func) == "len" and node.args:
            return _is_self_attr(node.args[0], FULL_TABLE_ATTRS)
        # enumerate(self.table), sorted(self.table), ... still scan it.
        if _name_of(func) in ("enumerate", "sorted", "reversed", "list",
                              "tuple", "iter", "zip"):
            return any(_is_table_iter(arg) for arg in node.args)
    return False


def _mentions_table_depth(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if _is_self_attr(sub, TABLE_DEPTH_ATTRS):
            return True
        if (isinstance(sub, ast.Call) and _name_of(sub.func) == "len"
                and sub.args and _is_self_attr(sub.args[0], FULL_TABLE_ATTRS)):
            return True
    return False


@register
class HotPathScanRule(Rule):
    code = "CHZ005"
    summary = "O(n) full-table scan inside a designated hot lookup path"

    def applies_to(self, path: str) -> bool:
        return any(path.startswith(package) or f"/{package}" in path
                   for package in HOT_PACKAGES)

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        violations = []
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name not in HOT_FUNCTIONS:
                continue
            for node in ast.walk(func):
                iters: List[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters = [node.iter]
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters = [gen.iter for gen in node.generators]
                for it in iters:
                    if _is_table_iter(it):
                        violations.append(self._violation(
                            node, path,
                            f"full-table scan in hot path {func.name}() — "
                            f"the Fig. 6 datapath is O(1) per lookup; use "
                            f"the index/rank structure instead",
                        ))
        return violations


# ---------------------------------------------------------------------------
# CHZ006 — missing __slots__ on hot per-bucket / per-slot classes
# ---------------------------------------------------------------------------

SLOTS_MODULES = (
    "core/bitvector.py",
    "core/subcell.py",
    "core/alloc.py",
    "bloomier/filter.py",
    "bloomier/partitioned.py",
    "bloomier/spillover.py",
    "hashing/tabulation.py",
    "hashing/crc.py",
)

EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "Flag", "IntFlag", "NamedTuple", "Protocol", "ABC",
    "Exception", "BaseException", "TypedDict",
})


def _has_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _exempt_class(cls: ast.ClassDef) -> bool:
    if cls.decorator_list:  # @dataclass etc. manage their own layout
        return True
    for base in cls.bases:
        name = _name_of(base)
        if name in EXEMPT_BASES or name.endswith(("Error", "Exception")):
            return True
    return False


@register
class MissingSlotsRule(Rule):
    code = "CHZ006"
    summary = "hot per-bucket/per-slot class without __slots__"
    modules = SLOTS_MODULES

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _exempt_class(node) or _has_slots(node):
                continue
            violations.append(self._violation(
                node, path,
                f"class {node.name} in a hot module lacks __slots__ — "
                f"a per-instance __dict__ costs ~100+ bytes per bucket",
            ))
        return violations


# ---------------------------------------------------------------------------
# CHZ007 — ServeMetrics constructed outside repro.serve
# ---------------------------------------------------------------------------

def _in_serve_package(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return "/serve/" in normalized or normalized.startswith("serve/")


@register
class ServeMetricsConstructionRule(Rule):
    code = "CHZ007"
    summary = ("ServeMetrics constructed outside repro.serve; read serving "
               "counters from the repro.obs registry instead")

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        if _in_serve_package(path):
            return []
        return [
            self._violation(
                node, path,
                "ServeMetrics is an internal detail of repro.serve — a "
                "second instance silently diverges from the one the "
                "SnapshotRouter publishes; read serve_* metrics from the "
                "repro.obs registry instead",
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _name_of(node.func) == "ServeMetrics"
        ]


# ---------------------------------------------------------------------------
# CHZ008 — broad exception handlers that silently swallow faults
# ---------------------------------------------------------------------------

def _in_repro_source(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return "/repro/" in normalized or normalized.startswith("repro/")


@register
class SwallowedExceptionRule(Rule):
    code = "CHZ008"
    summary = ("broad `except: pass` inside repro; count the fault or "
               "degrade — never swallow it silently")

    _BROAD = ("Exception", "BaseException")

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        if not _in_repro_source(path):
            return []
        return [
            self._violation(
                node, path,
                "a broad except with a bare `pass` hides exactly the faults "
                "the resilience layer exists to surface — narrow the "
                "exception type, or record the event (metrics/trace) and "
                "degrade instead",
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and self._is_broad(node.type)
            and len(node.body) == 1
            and isinstance(node.body[0], ast.Pass)
        ]

    def _is_broad(self, handler_type: Optional[ast.expr]) -> bool:
        if handler_type is None:
            return True  # bare `except:`
        if isinstance(handler_type, ast.Tuple):
            return any(self._is_broad(element) for element in handler_type.elts)
        return _name_of(handler_type) in self._BROAD


# ---------------------------------------------------------------------------
# CHZ009 — wall-clock time used where a duration is being measured
# ---------------------------------------------------------------------------

@register
class WallClockDurationRule(Rule):
    code = "CHZ009"
    summary = ("`time.time()` inside repro; durations and deadlines must "
               "use time.monotonic()/time.perf_counter()")

    def check(self, tree: ast.AST, path: str) -> List["Violation"]:
        if not _in_repro_source(path):
            return []
        violations = []
        message = (
            "time.time() is wall-clock and jumps under NTP steps — every "
            "interval the serving stack measures (lock holds, staleness, "
            "batch latency, backoff deadlines) must come from "
            "time.monotonic() or time.perf_counter()"
        )
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "time"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
            ):
                violations.append(self._violation(node, path, message))
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        violations.append(self._violation(
                            node, path,
                            "`from time import time` invites wall-clock "
                            "duration math; import the module and use "
                            "time.monotonic()/time.perf_counter() for "
                            "intervals",
                        ))
        return violations
