"""Shared program model for the cross-module analyzer.

The lint layer (:mod:`repro.devtools.lint`) sees one function at a time;
the analyze layer needs to reason about *protocols* — which lock guards
an attribute, which call paths reach a method with that lock held, which
arrays are reachable from a published snapshot.  This module builds the
whole-program model the passes share:

* **annotations** — trailing comments declare intent next to the state
  they protect::

      self._journal = None      # guarded-by: _lock
      self._snapshot = None     # seqlock-pointer: _lock _version
      self.update_stats = ...   # guarded-by: external      (caller locks)
      self._segment = None      # guarded-by: single-writer (one thread)

* **lock context** — every statement of every function is visited once
  with the set of *lexically held* lock tokens (``("self", "_lock")``,
  ``("self", "router", "_lock")``…) threaded through ``with`` blocks,
  ``acquire()``/``release()`` pairs, and ``@contextmanager`` helpers
  that hold a lock at their ``yield`` (e.g. ``SnapshotRouter._held``).

* **call graph** — private functions additionally inherit an *entry*
  context: the intersection of the lock sets held at every resolved
  call site, re-rooted through typed receivers (``self.router`` is a
  ``SnapshotRouter`` because ``__init__`` says so).  Public functions
  are assumed callable with no locks held.

Everything is stdlib ``ast`` + ``re`` — no third-party dependencies.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

#: A lock identity as seen from inside a function: a dotted attribute
#: path rooted at a name, e.g. ``("self", "_lock")``.
Token = Tuple[str, ...]

GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(?P<guard>[A-Za-z_][A-Za-z0-9_-]*)")
SEQLOCK_RE = re.compile(
    r"#\s*seqlock-pointer:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s+(?P<version>[A-Za-z_][A-Za-z0-9_]*)")

#: Special ``guarded-by`` targets that name a discipline, not a lock.
GUARD_EXTERNAL = "external"
GUARD_SINGLE_WRITER = "single-writer"

#: Constructors whose result is treated as a lock object.
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Methods skipped by the lock-discipline pass: they run before the
#: object is shared (or while tearing it down) by construction.
LIFECYCLE_EXEMPT = frozenset({"__init__", "__del__", "__post_init__"})


def parse_guard_comments(source: str) -> Dict[int, str]:
    """Map line number -> guard name for every ``# guarded-by:`` comment."""
    guards: Dict[int, str] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = GUARDED_BY_RE.search(line)
        if match:
            guards[lineno] = match.group("guard")
    return guards


def parse_seqlock_comments(source: str) -> Dict[int, Tuple[str, str]]:
    """Map line number -> (lock, version) for ``# seqlock-pointer:``."""
    pointers: Dict[int, Tuple[str, str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = SEQLOCK_RE.search(line)
        if match:
            pointers[lineno] = (match.group("lock"), match.group("version"))
    return pointers


def dotted_path(node: ast.expr) -> Optional[Token]:
    """``self.router._lock`` -> ``("self", "router", "_lock")``; else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


@dataclass(frozen=True)
class AttrAccess:
    """One read/write of ``<receiver path>.<attr>`` under ``held`` locks."""

    receiver: Token
    attr: str
    is_store: bool
    held: FrozenSet[Token]
    lineno: int
    col: int


@dataclass(frozen=True)
class CallEvent:
    """One call of ``<receiver path>.<name>(...)`` under ``held`` locks."""

    receiver: Token
    name: str
    held: FrozenSet[Token]
    lineno: int
    col: int


@dataclass(frozen=True)
class AcquireEvent:
    """One lock acquisition (with-statement or ``.acquire()``)."""

    token: Token
    held: FrozenSet[Token]  # locks already held when this one is taken
    lineno: int
    col: int


@dataclass(eq=False)
class FunctionModel:
    """One callable unit: method, module function, or nested ``def``."""

    name: str
    qualname: str
    module: "ModuleModel"
    class_name: Optional[str]
    node: ast.AST
    accesses: List[AttrAccess] = field(default_factory=list)
    calls: List[CallEvent] = field(default_factory=list)
    acquires: List[AcquireEvent] = field(default_factory=list)
    statements: List[Tuple[ast.stmt, FrozenSet[Token]]] = field(
        default_factory=list
    )
    nested: Dict[str, "FunctionModel"] = field(default_factory=dict)
    yield_held: Optional[FrozenSet[Token]] = None
    entry_held: FrozenSet[Token] = frozenset()

    @property
    def is_public(self) -> bool:
        if self.name.startswith("__") and self.name.endswith("__"):
            return True
        return not self.name.startswith("_")

    def effective(self, held: FrozenSet[Token]) -> FrozenSet[Token]:
        return held | self.entry_held


@dataclass(eq=False)
class ClassModel:
    """Per-class facts: guards, locks, typed attrs, methods."""

    name: str
    module: "ModuleModel"
    node: ast.ClassDef
    guarded: Dict[str, str] = field(default_factory=dict)
    seqlock_pointers: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    lock_attrs: Set[str] = field(default_factory=set)
    attr_types: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, FunctionModel] = field(default_factory=dict)
    lock_cms: Dict[str, FrozenSet[Token]] = field(default_factory=dict)
    bases: Tuple[str, ...] = ()


@dataclass(eq=False)
class ModuleModel:
    """One parsed source file plus its annotation tables."""

    path: str
    tree: ast.Module
    classes: Dict[str, ClassModel] = field(default_factory=dict)
    functions: Dict[str, FunctionModel] = field(default_factory=dict)


class ProjectModel:
    """All modules together, with cross-module name/type resolution."""

    def __init__(self) -> None:
        self.modules: List[ModuleModel] = []
        self._classes_by_name: Dict[str, ClassModel] = {}
        self._ambiguous_classes: Set[str] = set()
        self._lock_attr_names: Set[str] = set()
        self._functions: List[FunctionModel] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, sources: Iterable[Tuple[str, str, ast.Module]]) -> "ProjectModel":
        """Build the model from ``(path, source, tree)`` triples."""
        project = cls()
        for path, source, tree in sources:
            project._index_module(path, source, tree)
        project._resolve_typed_attrs()
        project._walk_all()
        project._entry_fixpoint()
        return project

    def _index_module(self, path: str, source: str, tree: ast.Module) -> None:
        module = ModuleModel(path=path, tree=tree)
        guards = parse_guard_comments(source)
        seqlock = parse_seqlock_comments(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                model = ClassModel(
                    name=node.name, module=module, node=node,
                    bases=tuple(
                        base.id for base in node.bases
                        if isinstance(base, ast.Name)
                    ),
                )
                self._scan_class_body(model, node, guards, seqlock)
                module.classes[node.name] = model
                if node.name in self._classes_by_name:
                    self._ambiguous_classes.add(node.name)
                else:
                    self._classes_by_name[node.name] = model
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = FunctionModel(
                    name=node.name, qualname=node.name, module=module,
                    class_name=None, node=node,
                )
                module.functions[node.name] = function
                self._functions.append(function)
        self.modules.append(module)

    def _scan_class_body(self, model: ClassModel, node: ast.ClassDef,
                         guards: Dict[int, str],
                         seqlock: Dict[int, Tuple[str, str]]) -> None:
        for stmt in ast.walk(node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                path = dotted_path(target)
                if path is None or len(path) != 2 or path[0] != "self":
                    continue
                attr = path[1]
                if stmt.lineno in guards:
                    model.guarded[attr] = guards[stmt.lineno]
                if stmt.lineno in seqlock:
                    model.seqlock_pointers[attr] = seqlock[stmt.lineno]
                    model.guarded.setdefault(attr, seqlock[stmt.lineno][0])
                if isinstance(value, ast.Call):
                    func_path = dotted_path(value.func)
                    if func_path and func_path[-1] in _LOCK_FACTORIES:
                        model.lock_attrs.add(attr)
                        self._lock_attr_names.add(attr)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = FunctionModel(
                    name=item.name,
                    qualname=f"{model.name}.{item.name}",
                    module=model.module, class_name=model.name, node=item,
                )
                model.methods[item.name] = function
                self._functions.append(function)

    def _resolve_typed_attrs(self) -> None:
        """``self.x = <annotated param>`` / ``self.x = KnownClass(...)``."""
        for module in self.modules:
            for model in module.classes.values():
                init = model.methods.get("__init__")
                if init is None or not isinstance(
                    init.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                param_types: Dict[str, str] = {}
                for arg in init.node.args.args + init.node.args.kwonlyargs:
                    annotation = arg.annotation
                    if isinstance(annotation, ast.Name):
                        param_types[arg.arg] = annotation.id
                    elif isinstance(annotation, ast.Constant) and isinstance(
                        annotation.value, str
                    ):
                        param_types[arg.arg] = annotation.value
                for stmt in ast.walk(init.node):
                    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    value = stmt.value
                    for target in targets:
                        path = dotted_path(target)
                        if path is None or len(path) != 2 or path[0] != "self":
                            continue
                        attr = path[1]
                        if (isinstance(value, ast.Name)
                                and value.id in param_types):
                            model.attr_types[attr] = param_types[value.id]
                        elif isinstance(value, ast.Call):
                            func_path = dotted_path(value.func)
                            if (func_path and len(func_path) == 1
                                    and func_path[0] in self._classes_by_name):
                                model.attr_types[attr] = func_path[0]

    def _walk_all(self) -> None:
        # Contextmanager lock helpers first: other functions' with-items
        # resolve through the registry their walk populates.
        cm_functions = [fn for fn in self._functions if self._is_contextmanager(fn)]
        for fn in cm_functions:
            _FunctionWalker(self, fn).walk()
            if fn.class_name is not None and fn.yield_held:
                owner = fn.module.classes[fn.class_name]
                owner.lock_cms[fn.name] = fn.yield_held
        for fn in self._functions:
            if fn not in cm_functions:
                _FunctionWalker(self, fn).walk()

    @staticmethod
    def _is_contextmanager(fn: FunctionModel) -> bool:
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        for decorator in node.decorator_list:
            path = dotted_path(decorator)
            if path and path[-1] in ("contextmanager", "asynccontextmanager"):
                return True
        return False

    # -- resolution --------------------------------------------------------

    def class_named(self, name: str) -> Optional[ClassModel]:
        if name in self._ambiguous_classes:
            return None
        return self._classes_by_name.get(name)

    def is_lock_attr(self, attr: str) -> bool:
        return attr in self._lock_attr_names

    def receiver_class(self, context: Optional[ClassModel],
                       receiver: Token) -> Optional[ClassModel]:
        """The class of ``self.<a>.<b>...`` via declared attribute types."""
        if context is None or not receiver or receiver[0] != "self":
            return None
        current = context
        for attr in receiver[1:]:
            type_name = current.attr_types.get(attr)
            if type_name is None:
                return None
            resolved = self.class_named(type_name)
            if resolved is None:
                return None
            current = resolved
        return current

    def _method_of(self, model: Optional[ClassModel],
                   name: str) -> Optional[FunctionModel]:
        seen: Set[str] = set()
        while model is not None and model.name not in seen:
            seen.add(model.name)
            if name in model.methods:
                return model.methods[name]
            parent: Optional[ClassModel] = None
            for base in model.bases:
                parent = self.class_named(base)
                if parent is not None:
                    break
            model = parent
        return None

    def resolve_call(self, caller: FunctionModel,
                     call: CallEvent) -> Optional[FunctionModel]:
        context = (
            caller.module.classes.get(caller.class_name)
            if caller.class_name else None
        )
        if not call.receiver:
            if call.name in caller.nested:
                return caller.nested[call.name]
            return caller.module.functions.get(call.name)
        if call.receiver == ("self",):
            return self._method_of(context, call.name)
        target = self.receiver_class(context, call.receiver)
        if target is not None:
            return self._method_of(target, call.name)
        return None

    @staticmethod
    def map_tokens(tokens: FrozenSet[Token],
                   receiver: Token) -> FrozenSet[Token]:
        """Re-root caller-side lock tokens into the callee's frame."""
        if not receiver or receiver == ("self",):
            # Same frame (nested def) or same object: tokens carry over.
            return frozenset(t for t in tokens if t and t[0] == "self")
        mapped: Set[Token] = set()
        for token in tokens:
            if (len(token) > len(receiver)
                    and token[:len(receiver)] == receiver):
                mapped.add(("self",) + token[len(receiver):])
        return frozenset(mapped)

    # -- entry-context fixpoint -------------------------------------------

    def _entry_fixpoint(self) -> None:
        call_sites: Dict[int, List[Tuple[FunctionModel, CallEvent]]] = {}
        for caller in self._functions:
            for call in caller.calls:
                callee = self.resolve_call(caller, call)
                if callee is not None:
                    call_sites.setdefault(id(callee), []).append((caller, call))

        TOP = None  # "not yet constrained": identity for intersection
        entry: Dict[int, Optional[FrozenSet[Token]]] = {}
        for fn in self._functions:
            if fn.is_public or fn.class_name is None:
                entry[id(fn)] = frozenset()
            elif not call_sites.get(id(fn)):
                entry[id(fn)] = frozenset()
            else:
                entry[id(fn)] = TOP

        for _round in range(len(self._functions) + 1):
            changed = False
            for fn in self._functions:
                sites = call_sites.get(id(fn))
                if not sites or entry[id(fn)] == frozenset():
                    continue
                meet: Optional[FrozenSet[Token]] = TOP
                for caller, call in sites:
                    caller_entry = entry.get(id(caller), frozenset())
                    if caller_entry is TOP:
                        continue
                    held = self.map_tokens(
                        call.held | caller_entry, call.receiver
                    )
                    meet = held if meet is TOP else (meet & held)
                if meet is not TOP and meet != entry[id(fn)]:
                    entry[id(fn)] = meet
                    changed = True
            if not changed:
                break

        for fn in self._functions:
            fn.entry_held = entry[id(fn)] or frozenset()

    def functions(self) -> List[FunctionModel]:
        return list(self._functions)


class _FunctionWalker:
    """Visit one function's statements, threading held-lock tokens."""

    def __init__(self, project: ProjectModel, fn: FunctionModel) -> None:
        self.project = project
        self.fn = fn
        self.context = (
            fn.module.classes.get(fn.class_name) if fn.class_name else None
        )

    def walk(self) -> None:
        node = self.fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._block(node.body, set())

    # -- statement dispatch ------------------------------------------------

    def _block(self, body: Sequence[ast.stmt], held: Set[Token]) -> None:
        held = set(held)
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                tokens: Set[Token] = set()
                for item in stmt.items:
                    self._extract(item.context_expr, frozenset(held))
                    token_set = self._with_tokens(item.context_expr)
                    for token in token_set:
                        self.fn.acquires.append(AcquireEvent(
                            token=token, held=frozenset(held | tokens),
                            lineno=item.context_expr.lineno,
                            col=item.context_expr.col_offset,
                        ))
                        tokens.add(token)
                self._block(stmt.body, held | tokens)
            elif isinstance(stmt, ast.If):
                self._simple(stmt.test, stmt, held)
                self._block(stmt.body, held)
                self._block(stmt.orelse, held)
            elif isinstance(stmt, (ast.While,)):
                self._simple(stmt.test, stmt, held)
                self._block(stmt.body, held)
                self._block(stmt.orelse, held)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._simple(stmt.iter, stmt, held)
                self._extract(stmt.target, frozenset(held))
                self._block(stmt.body, held)
                self._block(stmt.orelse, held)
            elif isinstance(stmt, ast.Try):
                self._block(stmt.body, held)
                for handler in stmt.handlers:
                    self._block(handler.body, held)
                self._block(stmt.orelse, held)
                self._block(stmt.finalbody, held)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = FunctionModel(
                    name=stmt.name,
                    qualname=f"{self.fn.qualname}.<locals>.{stmt.name}",
                    module=self.fn.module, class_name=self.fn.class_name,
                    node=stmt,
                )
                self.fn.nested[stmt.name] = nested
                self.project._functions.append(nested)
                _FunctionWalker(self.project, nested).walk()
            elif isinstance(stmt, ast.ClassDef):
                continue  # pragma: no cover - no nested classes in tree
            else:
                acquired = self._acquire_release(stmt)
                if acquired is not None:
                    kind, token = acquired
                    if kind == "acquire":
                        self.fn.acquires.append(AcquireEvent(
                            token=token, held=frozenset(held),
                            lineno=stmt.lineno, col=stmt.col_offset,
                        ))
                        self._record(stmt, held)
                        held.add(token)
                        continue
                    self._record(stmt, held)
                    held.discard(token)
                    continue
                if (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, (ast.Yield, ast.YieldFrom))):
                    snapshot = frozenset(held)
                    self.fn.yield_held = (
                        snapshot if self.fn.yield_held is None
                        else self.fn.yield_held & snapshot
                    )
                self._record(stmt, held)

    def _simple(self, expr: ast.expr, stmt: ast.stmt,
                held: Set[Token]) -> None:
        """Record a compound statement's header expression."""
        self.fn.statements.append((stmt, frozenset(held)))
        self._extract(expr, frozenset(held))

    def _record(self, stmt: ast.stmt, held: Set[Token]) -> None:
        snapshot = frozenset(held)
        self.fn.statements.append((stmt, snapshot))
        self._extract(stmt, snapshot)

    # -- event extraction --------------------------------------------------

    def _extract(self, root: ast.AST, held: FrozenSet[Token]) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute):
                path = dotted_path(node)
                if path is not None and len(path) >= 2:
                    self.fn.accesses.append(AttrAccess(
                        receiver=path[:-1], attr=path[-1],
                        is_store=isinstance(node.ctx, (ast.Store, ast.Del)),
                        held=held, lineno=node.lineno, col=node.col_offset,
                    ))
            elif isinstance(node, ast.Call):
                func_path = dotted_path(node.func)
                if func_path is not None:
                    self.fn.calls.append(CallEvent(
                        receiver=func_path[:-1], name=func_path[-1],
                        held=held, lineno=node.lineno, col=node.col_offset,
                    ))

    # -- lock recognition --------------------------------------------------

    def _with_tokens(self, expr: ast.expr) -> Set[Token]:
        """Lock tokens acquired by one with-item, if any."""
        path = dotted_path(expr)
        if path is not None and self.project.is_lock_attr(path[-1]):
            return {path}
        if isinstance(expr, ast.Call):
            func_path = dotted_path(expr.func)
            if func_path is None or len(func_path) < 2:
                return set()
            receiver, name = func_path[:-1], func_path[-1]
            target = (
                self.context if receiver == ("self",)
                else self.project.receiver_class(self.context, receiver)
            )
            if target is not None and name in target.lock_cms:
                # The helper's tokens are rooted at *its* self; re-root
                # them at the receiver path seen from this caller.
                return {
                    receiver + token[1:] for token in target.lock_cms[name]
                }
        return set()

    def _acquire_release(self, stmt: ast.stmt) -> Optional[Tuple[str, Token]]:
        if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
            return None
        path = dotted_path(stmt.value.func)
        if path is None or len(path) < 3:
            return None
        if path[-1] not in ("acquire", "release"):
            return None
        if not self.project.is_lock_attr(path[-2]):
            return None
        return ("acquire" if path[-1] == "acquire" else "release", path[:-1])
