"""Publish-protocol pass: how an image reaches readers that hold no lock.

Chisel's update path (§4.4) copies the words an update modified into the
tables the datapath reads.  Here that copy lands in two places: the
router's patched image, which lock-free readers run under a version
check, and the shard segments worker processes map read-only
(docs/SHARDING.md).

* **ANZ203** — no mutation of arrays reachable from a published
  segment: names bound from ``to_lookup()`` / ``_array_view()`` /
  ``np.frombuffer(...)`` are zero-copy views a peer process may be
  reading; only the designated writer functions (``export``, ``create``,
  ``publish``, ``write_image_into``) may store through them.  Sealing a
  view read-only (``.flags.writeable = False``) is always allowed.

* **ANZ204** — a segment obtained from ``export(...)`` is installed
  (``_install``/``publish``) with no ``words_written()`` read in
  between: the PR 5 scrub-mid-export race, where a repair that landed
  *during* an unlocked export published a half-repaired image.  The
  check is syntactic.  The live coordinator exports in its
  ``SnapshotRouter.image_cut`` render, under the update lock, so nothing
  lands mid-export, and installs the segment after the cut returns.

* **ANZ205** — seqlock pointer discipline on attributes annotated
  ``# seqlock-pointer: <lock> <version>``.  The pointed-to object is
  patched in place while readers run it with no lock held; a reader
  notes ``<version>`` under ``<lock>`` and retries if it moved.  So
  every mutation through the pointer — a store through it, or a call of
  one of its :data:`SEQLOCK_MUTATORS` — must sit inside ``with <lock>``
  (lexically or on every call path), after a ``self.<version> += 1`` in
  the same function.  A patch with no bump is invisible to readers; a
  patch outside the lock races the reader's version read.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..lint.engine import Violation
from .model import LIFECYCLE_EXEMPT, FunctionModel, ProjectModel, dotted_path

#: Calls whose result is a view of (or into) a published shared segment.
PUBLISHED_SOURCES = frozenset({"to_lookup", "frombuffer", "_array_view"})

#: Functions allowed to store through published views: they *are* the
#: writer side of the protocol and fill a segment before it is published.
#: ``write_image_into`` fills a buffer no reader can see yet — a fresh
#: shared segment before its name is published, or a checkpoint ``.tmp``
#: file before the rename.
WRITER_ALLOWLIST = frozenset(
    {"export", "create", "publish", "write_image_into"})

#: Methods that mutate the object behind a seqlock pointer in place.
SEQLOCK_MUTATORS = frozenset({"patch", "bind"})


def check_publish_protocol(project: ProjectModel) -> List[Violation]:
    violations: List[Violation] = []
    for fn in project.functions():
        violations.extend(_check_seqlock_pointer(fn))
        violations.extend(_check_published_views(fn))
        violations.extend(_check_export_fence(fn))
    return violations


def _assign_targets(stmt: ast.stmt) -> Sequence[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target]
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target]
    return []


# ---------------------------------------------------------------------------
# ANZ205 — seqlock pointer discipline
# ---------------------------------------------------------------------------

def _statement_roots(stmt: ast.stmt) -> Sequence[ast.AST]:
    """The parts of a recorded statement that belong to it alone.

    Compound statements are recorded by their header; their bodies are
    recorded statement by statement, with their own lock sets.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    return [stmt]


def _seqlock_mutations(stmt: ast.stmt, pointer: str,
                       aliases: Set[str]) -> List[ast.expr]:
    """Stores through ``self.<pointer>`` (or an alias) and mutator calls."""
    def through(path: Optional[Tuple[str, ...]], minimum: int) -> bool:
        if path is None:
            return False
        if path[:2] == ("self", pointer):
            return len(path) >= minimum + 1
        return path[0] in aliases and len(path) >= minimum
    found: List[ast.expr] = []
    for target in _assign_targets(stmt):
        if isinstance(target, ast.Subscript):
            if through(dotted_path(target.value), 1):
                found.append(target)
        elif through(dotted_path(target), 2):
            found.append(target)
    for root in _statement_roots(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                path = dotted_path(node.func)
                if (path is not None and path[-1] in SEQLOCK_MUTATORS
                        and through(path[:-1], 1)):
                    found.append(node)
    return found


def _check_seqlock_pointer(fn: FunctionModel) -> List[Violation]:
    context = fn.module.classes.get(fn.class_name) if fn.class_name else None
    if (context is None or not context.seqlock_pointers
            or fn.name in LIFECYCLE_EXEMPT):
        return []
    out: List[Violation] = []
    for pointer, (lock, version) in context.seqlock_pointers.items():
        aliases: Set[str] = set()
        bumped = False
        for stmt, held in fn.statements:
            locked = ("self", lock) in fn.effective(held)
            if (isinstance(stmt, ast.AugAssign)
                    and isinstance(stmt.op, ast.Add)
                    and dotted_path(stmt.target) == ("self", version)
                    and locked):
                bumped = True
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
                pairs = (list(zip(target.elts, value.elts))
                         if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple)
                         else [(target, value)])
                for name, source in pairs:
                    if (isinstance(name, ast.Name)
                            and dotted_path(source) == ("self", pointer)):
                        aliases.add(name.id)
            for node in _seqlock_mutations(stmt, pointer, aliases):
                if not locked:
                    problem = f"outside `with self.{lock}`"
                elif not bumped:
                    problem = (f"with no `self.{version} += 1` before it "
                               f"— readers cannot see the change")
                else:
                    continue
                out.append(Violation(
                    path=fn.module.path, line=node.lineno,
                    col=node.col_offset, code="ANZ205",
                    message=(
                        f"{fn.qualname} mutates the image behind seqlock "
                        f"pointer self.{pointer} {problem}"
                    ),
                ))
    return out


# ---------------------------------------------------------------------------
# ANZ203 — published-view mutation
# ---------------------------------------------------------------------------

def _is_writeable_seal(target: ast.expr) -> bool:
    """``<view>.flags.writeable = False`` is the read-only seal itself."""
    return (
        isinstance(target, ast.Attribute) and target.attr == "writeable"
        and isinstance(target.value, ast.Attribute)
        and target.value.attr == "flags"
    )


def _check_published_views(fn: FunctionModel) -> List[Violation]:
    if fn.name in WRITER_ALLOWLIST or fn.name in LIFECYCLE_EXEMPT:
        return []
    out: List[Violation] = []
    published: Set[str] = set()
    for stmt, _held in fn.statements:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)):
            func = dotted_path(stmt.value.func)
            if func is not None and func[-1] in PUBLISHED_SOURCES:
                published.add(stmt.targets[0].id)
                continue
        for target in _assign_targets(stmt):
            if _is_writeable_seal(target):
                continue
            base: Optional[ast.expr] = None
            if isinstance(target, ast.Subscript):
                base = target.value
            elif isinstance(target, ast.Attribute):
                base = target.value
            if base is None:
                continue
            path = dotted_path(base)
            if path is not None and path[0] in published:
                out.append(Violation(
                    path=fn.module.path, line=target.lineno,
                    col=target.col_offset, code="ANZ203",
                    message=(
                        f"{fn.qualname} mutates {path[0]}, a zero-copy "
                        f"view of a published shared segment; a reader "
                        f"process may be serving from it"
                    ),
                ))
    return out


# ---------------------------------------------------------------------------
# ANZ204 — export → install without a quiescence re-check
# ---------------------------------------------------------------------------

def _check_export_fence(fn: FunctionModel) -> List[Violation]:
    out: List[Violation] = []
    exported: Dict[str, int] = {}
    fences: List[int] = []
    for position, (stmt, _held) in enumerate(fn.statements):
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_path(node.func)
            if func is None:
                continue
            if func[-1] == "words_written":
                fences.append(position)
            elif func[-1] in ("_install", "publish"):
                for arg in ast.walk(node):
                    if (isinstance(arg, ast.Name)
                            and arg.id in exported):
                        export_at = exported[arg.id]
                        if not any(export_at < f < position + 1
                                   for f in fences):
                            out.append(Violation(
                                path=fn.module.path, line=node.lineno,
                                col=node.col_offset, code="ANZ204",
                                message=(
                                    f"{fn.qualname} installs "
                                    f"{arg.id} exported earlier with no "
                                    f"words_written() re-check in "
                                    f"between; an update landing during "
                                    f"the export publishes a torn image"
                                ),
                            ))
                        break
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)):
            func = dotted_path(stmt.value.func)
            if func is not None and func[-1] == "export":
                exported[stmt.targets[0].id] = position
    return out
