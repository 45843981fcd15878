"""Publish-protocol pass: the seqlock/RCU state machines of docs/SHARDING.md.

* **ANZ201** — seqlock writer discipline on shared-memory control words.
  In any class that bumps a ``*_SEQUENCE`` word, every store to the
  shared segment must happen inside a window opened and closed by
  sequence bumps, and the ``*_GENERATION`` word must be the *last*
  payload store before the closing bump (readers treat the generation
  as the commit record).  Stores outside any window are torn reads
  waiting to happen.  ``create``/``__init__`` run before the segment is
  shared and are exempt.

* **ANZ202** — RCU pointer discipline on attributes annotated
  ``# rcu-pointer: <lock>``.  The pointed-to object is published to
  readers that hold no lock, so: no mutation through the pointer, no
  assignment from outside the owning class, and the swap itself must be
  a single assignment of a prebuilt object (never constructed in
  place).  Read/write locking of the pointer *itself* is ANZ101's job
  (the annotation doubles as ``guarded-by``).

* **ANZ203** — no mutation of arrays reachable from a published
  segment: names bound from ``to_lookup()`` / ``_array_view()`` /
  ``np.frombuffer(...)`` / ``acks()`` are zero-copy views a peer process
  may be reading; only the designated writer functions (``export``,
  ``create``, ``publish``, ``ack``, ``write_image_into``) may store
  through them.  Sealing a view read-only (``.flags.writeable = False``)
  is always allowed.

* **ANZ204** — a segment obtained from ``export(...)`` is installed
  (``_install``/``publish``) with no ``words_written()`` read in
  between: the PR 5 scrub-mid-export race, where a repair that landed
  *during* an unlocked export published a half-repaired image.  The
  check is syntactic.  The live coordinator exports inside
  ``SnapshotRouter.image_cut``, under the update lock, so nothing lands
  mid-export; it reads ``words_written()`` there, to mark what the
  segment holds, before it installs.

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
from .model import (
    LIFECYCLE_EXEMPT,
    FunctionModel,
    ModuleModel,
    ProjectModel,
    dotted_path,
)

#: Calls whose result is a view of (or into) a published shared segment.
PUBLISHED_SOURCES = frozenset(
    {"to_lookup", "frombuffer", "_array_view", "acks"}
)

#: Functions allowed to store through published views: they *are* the
#: writer side of the protocol (pre-publish fill or designated slots).
#: ``write_image_into`` fills a buffer no reader can see yet — a fresh
#: shared segment before its name is published, or a checkpoint ``.tmp``
#: file before the rename.
WRITER_ALLOWLIST = frozenset(
    {"export", "create", "publish", "ack", "write_image_into"})

#: Functions allowed to store to a seqlock-managed segment with no open
#: window: they run before the segment name is visible to any reader.
SEQLOCK_EXEMPT = frozenset({"create"}) | LIFECYCLE_EXEMPT

#: Methods that mutate the object behind a seqlock pointer in place.
SEQLOCK_MUTATORS = frozenset({"patch", "bind"})


def check_publish_protocol(project: ProjectModel) -> List[Violation]:
    violations: List[Violation] = []
    for fn in project.functions():
        violations.extend(_check_rcu(project, fn))
        violations.extend(_check_seqlock_pointer(fn))
        violations.extend(_check_published_views(fn))
        violations.extend(_check_export_fence(fn))
    violations.extend(_check_seqlock(project))
    return violations


# ---------------------------------------------------------------------------
# ANZ201 — seqlock windows
# ---------------------------------------------------------------------------

def _assign_targets(stmt: ast.stmt) -> Sequence[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target]
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target]
    return []


def _shared_store_kind(stmt: ast.stmt, shared_names: Set[str],
                       shared_attrs: Set[str]) -> Optional[Tuple[str, ast.expr]]:
    """Classify a store into a shared segment: seq, gen, or payload."""
    for target in _assign_targets(stmt):
        if not isinstance(target, ast.Subscript):
            continue
        base = dotted_path(target.value)
        if base is None:
            continue
        is_shared = (
            (len(base) == 1 and base[0] in shared_names)
            or (base[0] == "self" and len(base) == 2
                and base[1] in shared_attrs)
        )
        if not is_shared:
            continue
        index_src = ast.unparse(target.slice).upper()
        if "SEQUENCE" in index_src:
            return ("seq", target)
        if "GENERATION" in index_src:
            return ("gen", target)
        return ("payload", target)
    return None


def _segment_aliases(fn: FunctionModel, shared_attrs: Set[str]) -> Set[str]:
    """Local names aliasing the shared segment (views or raw buffers)."""
    names: Set[str] = set()
    for stmt, _held in fn.statements:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = stmt.value
        path = dotted_path(value)
        if path is not None:
            if path[-1] == "buf":
                names.add(target.id)
            elif (path[0] == "self" and len(path) == 2
                  and path[1] in shared_attrs):
                names.add(target.id)
        elif isinstance(value, ast.Call):
            func = dotted_path(value.func)
            if func is not None and func[-1] == "frombuffer":
                names.add(target.id)
        elif isinstance(value, ast.Subscript):
            base = dotted_path(value.value)
            if base is not None and base[-1] == "buf":
                names.add(target.id)
    return names


def _class_shared_attrs(project: ProjectModel,
                        module: ModuleModel, class_name: str) -> Set[str]:
    """Attrs of the class holding ``np.frombuffer`` views or raw buffers."""
    attrs: Set[str] = set()
    model = module.classes.get(class_name)
    if model is None:
        return attrs
    for stmt in ast.walk(model.node):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            path = dotted_path(target)
            if path is None or len(path) != 2 or path[0] != "self":
                continue
            if isinstance(stmt.value, ast.Call):
                func = dotted_path(stmt.value.func)
                if func is not None and func[-1] == "frombuffer":
                    attrs.add(path[1])
    return attrs


def _check_seqlock(project: ProjectModel) -> List[Violation]:
    out: List[Violation] = []
    # First sweep: which classes have a seqlock writer at all?
    stores: Dict[FunctionModel, List[Tuple[int, str, ast.expr]]] = {}
    seqlock_classes: Set[Tuple[str, str]] = set()
    for fn in project.functions():
        if fn.class_name is None:
            continue
        shared_attrs = _class_shared_attrs(project, fn.module, fn.class_name)
        aliases = _segment_aliases(fn, shared_attrs)
        events: List[Tuple[int, str, ast.expr]] = []
        for position, (stmt, _held) in enumerate(fn.statements):
            kind = _shared_store_kind(stmt, aliases, shared_attrs)
            if kind is not None:
                events.append((position, kind[0], kind[1]))
        if events:
            stores[fn] = events
            if any(kind == "seq" for _pos, kind, _node in events):
                seqlock_classes.add((fn.module.path, fn.class_name))

    for fn, events in stores.items():
        if (fn.module.path, fn.class_name or "") not in seqlock_classes:
            continue
        if fn.name in SEQLOCK_EXEMPT:
            continue
        seq_positions = [pos for pos, kind, _n in events if kind == "seq"]
        if not seq_positions:
            for _pos, _kind, node in events:
                out.append(Violation(
                    path=fn.module.path, line=node.lineno,
                    col=node.col_offset, code="ANZ201",
                    message=(
                        f"{fn.qualname} stores to the shared control "
                        f"segment with no seqlock window open — readers "
                        f"can observe a torn update"
                    ),
                ))
            continue
        if len(seq_positions) < 2:
            node = next(n for pos, kind, n in events if kind == "seq")
            out.append(Violation(
                path=fn.module.path, line=node.lineno, col=node.col_offset,
                code="ANZ201",
                message=(
                    f"{fn.qualname} opens a seqlock window (sequence bump) "
                    f"but never closes it with a second bump"
                ),
            ))
            continue
        window = (min(seq_positions), max(seq_positions))
        last_payload = max(
            (pos for pos, kind, _n in events if kind == "payload"),
            default=-1,
        )
        for pos, kind, node in events:
            if kind == "seq":
                continue
            if not window[0] < pos < window[1]:
                out.append(Violation(
                    path=fn.module.path, line=node.lineno,
                    col=node.col_offset, code="ANZ201",
                    message=(
                        f"{fn.qualname} stores to the shared segment "
                        f"outside the seqlock window"
                    ),
                ))
            elif kind == "gen" and pos < last_payload:
                out.append(Violation(
                    path=fn.module.path, line=node.lineno,
                    col=node.col_offset, code="ANZ201",
                    message=(
                        f"{fn.qualname} writes the generation word before "
                        f"the payload is complete — readers treat the "
                        f"generation as the commit record"
                    ),
                ))
    return out


# ---------------------------------------------------------------------------
# ANZ202 — RCU pointer discipline
# ---------------------------------------------------------------------------

def _check_rcu(project: ProjectModel, fn: FunctionModel) -> List[Violation]:
    out: List[Violation] = []
    context = fn.module.classes.get(fn.class_name) if fn.class_name else None
    for stmt, _held in fn.statements:
        for target in _assign_targets(stmt):
            if isinstance(target, ast.Subscript):
                path = dotted_path(target.value)
                through = True
            else:
                path = dotted_path(target)
                through = False
            if path is None or len(path) < 2 or path[0] != "self":
                continue
            # Intra-class: self.<ptr> or self.<ptr>.<...>
            if context is not None and path[1] in context.rcu_pointers:
                pointer = path[1]
                if len(path) > 2 or through:
                    out.append(Violation(
                        path=fn.module.path, line=target.lineno,
                        col=target.col_offset, code="ANZ202",
                        message=(
                            f"{fn.qualname} mutates the published object "
                            f"behind RCU pointer self.{pointer}; readers "
                            f"hold references with no lock — build a new "
                            f"object and swap"
                        ),
                    ))
                elif fn.name not in LIFECYCLE_EXEMPT:
                    value = stmt.value if isinstance(
                        stmt, (ast.Assign, ast.AnnAssign)
                    ) else None
                    single = isinstance(value, ast.Name) or (
                        isinstance(value, ast.Constant)
                        and value.value is None
                    )
                    if not single:
                        out.append(Violation(
                            path=fn.module.path, line=target.lineno,
                            col=target.col_offset, code="ANZ202",
                            message=(
                                f"{fn.qualname} swaps RCU pointer "
                                f"self.{pointer} with a non-trivial "
                                f"expression; the swap must be a single "
                                f"assignment of a prebuilt object"
                            ),
                        ))
                continue
            # Cross-class: foreign assignment to someone else's pointer.
            owner = project.receiver_class(context, path[:-1])
            if (owner is not None and path[-1] in owner.rcu_pointers
                    and not through and len(path) >= 3):
                out.append(Violation(
                    path=fn.module.path, line=target.lineno,
                    col=target.col_offset, code="ANZ202",
                    message=(
                        f"{fn.qualname} assigns {owner.name}'s RCU pointer "
                        f"{path[-1]} from outside the owning class"
                    ),
                ))
    return out


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
