"""Dtype-flow pass: numpy width/overflow tracking through array code.

Tracks an abstract value per expression — ``(dtype, max_value)`` where
``max_value`` is a *proven* upper bound (from integer literals, module
constants like ``_DIGEST_MIX``, ``& mask`` narrowing, and arithmetic on
known bounds) or ``None`` when nothing is provable.  numpy's silent
modular wrap-around makes three bug classes invisible at runtime:

* **ANZ301** — a shift of a W-bit numpy integer by a provably reachable
  count ``>= W``.  numpy reduces shift counts mod W (or worse,
  platform-defined), so ``np.uint64(1) << 64`` is ``1``, not ``0`` —
  exactly the PR 2 span-6 rank-mask overflow.  Unknown shift counts are
  *not* flagged (documented under-approximation: no proof, no report).

* **ANZ302** — a ``uint64`` product whose operand bounds can exceed
  2^64 − 1: the result wraps silently.  Unknown bounds count as the
  dtype maximum here (a product of two arbitrary uint64s can always
  wrap), so intentional mixing multiplies carry a justified noqa.

* **ANZ303** — mixed signed/unsigned 64-bit arithmetic: numpy promotes
  ``uint64 op int64`` to ``float64``, silently losing integer precision
  above 2^53.

* **ANZ304** — ``np.frombuffer`` without an explicit ``count``: the
  view silently extends over whatever the buffer holds (padding, a
  short segment), turning a length mismatch into garbage data instead
  of an error.

Scope: every module that imports numpy at its top level
(:func:`in_dtype_scope`).  A module without numpy holds no numpy
integers to track.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..lint.engine import Violation
from .model import FunctionModel, ModuleModel, ProjectModel, dotted_path

_WIDTHS: Dict[str, Tuple[int, bool]] = {
    "uint64": (64, False), "uint32": (32, False), "uint16": (16, False),
    "uint8": (8, False), "int64": (64, True), "int32": (32, True),
    "int16": (16, True), "int8": (8, True), "bool_": (1, False),
}

_ARRAY_CTORS = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "array", "asarray",
     "ascontiguousarray"}
)


def _dtype_max(dtype: str) -> Optional[int]:
    spec = _WIDTHS.get(dtype)
    if spec is None:
        return None
    width, signed = spec
    return (1 << (width - 1)) - 1 if signed else (1 << width) - 1


@dataclass(frozen=True)
class AbstractValue:
    """What we can prove about one expression's numeric result."""

    dtype: Optional[str] = None  # numpy name, "int" (python), "float", None
    max_value: Optional[int] = None  # proven upper bound, else None

    @property
    def is_numpy_int(self) -> bool:
        return self.dtype in _WIDTHS

    @property
    def width(self) -> Optional[int]:
        spec = _WIDTHS.get(self.dtype or "")
        return spec[0] if spec else None

    @property
    def signed(self) -> Optional[bool]:
        spec = _WIDTHS.get(self.dtype or "")
        return spec[1] if spec else None


UNKNOWN = AbstractValue()


def in_dtype_scope(module: ModuleModel) -> bool:
    """True when a top-level statement imports numpy: ``import numpy``,
    ``import numpy as …`` or ``from numpy… import …``."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Import) and any(
                alias.name == "numpy" for alias in stmt.names):
            return True
        if (isinstance(stmt, ast.ImportFrom) and stmt.level == 0
                and (stmt.module or "").partition(".")[0] == "numpy"):
            return True
    return False


def check_dtype_flow(project: ProjectModel) -> List[Violation]:
    violations: List[Violation] = []
    for module in project.modules:
        if not in_dtype_scope(module):
            continue
        module_env = _module_env(module)
        class_envs = {
            name: _class_attr_env(model.node, module_env)
            for name, model in module.classes.items()
        }
        for fn in project.functions():
            if fn.module is not module:
                continue
            env = dict(module_env)
            attr_env = class_envs.get(fn.class_name or "", {})
            evaluator = _Evaluator(module.path, env, attr_env)
            _walk_function(fn, evaluator)
            violations.extend(evaluator.violations)
    return violations


def _module_env(module: ModuleModel) -> Dict[str, AbstractValue]:
    """Constant-propagate module-level ``NAME = np.uint64(0x...)`` binds."""
    env: Dict[str, AbstractValue] = {}
    evaluator = _Evaluator(module.path, env, {}, report=False)
    for stmt in module.tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            env[stmt.targets[0].id] = evaluator.eval(stmt.value)
    return env


def _class_attr_env(node: ast.ClassDef,
                    module_env: Dict[str, AbstractValue]) -> Dict[str, AbstractValue]:
    """``self.<attr>`` values with a provable dtype, from ``__init__``."""
    attr_env: Dict[str, AbstractValue] = {}
    evaluator = _Evaluator("<class>", dict(module_env), {}, report=False)
    for item in node.body:
        if (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
            for stmt in ast.walk(item):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    path = dotted_path(target)
                    if path is None or len(path) != 2 or path[0] != "self":
                        continue
                    value = evaluator.eval(stmt.value)
                    if value.dtype in _WIDTHS:
                        # Attribute values are unknown at use sites;
                        # keep the dtype, drop the init-time bound.
                        attr_env[path[1]] = AbstractValue(value.dtype, None)
    return attr_env


def _walk_function(fn: FunctionModel, evaluator: "_Evaluator") -> None:
    for stmt, _held in fn.statements:
        if isinstance(stmt, ast.Assign):
            value = evaluator.eval(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    evaluator.env[target.id] = value
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            evaluator.env[element.id] = UNKNOWN
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = evaluator.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                evaluator.env[stmt.target.id] = value
        elif isinstance(stmt, ast.AugAssign):
            synthetic = ast.BinOp(
                left=stmt.target, op=stmt.op, right=stmt.value
            )
            ast.copy_location(synthetic, stmt)
            ast.fix_missing_locations(synthetic)
            value = evaluator.eval(synthetic)
            if isinstance(stmt.target, ast.Name):
                evaluator.env[stmt.target.id] = value
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                evaluator.eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            evaluator.eval(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            evaluator.eval(stmt.iter)
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    evaluator.env[node.id] = UNKNOWN
        elif isinstance(stmt, ast.Raise) and stmt.exc is not None:
            evaluator.eval(stmt.exc)


class _Evaluator:
    """Evaluate expressions to abstract values, reporting violations."""

    def __init__(self, path: str, env: Dict[str, AbstractValue],
                 attr_env: Dict[str, AbstractValue],
                 report: bool = True) -> None:
        self.path = path
        self.env = env
        self.attr_env = attr_env
        self.report = report
        self.violations: List[Violation] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        if self.report:
            self.violations.append(Violation(
                path=self.path, line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0), code=code,
                message=message,
            ))

    # -- dispatch ----------------------------------------------------------

    def eval(self, node: ast.expr) -> AbstractValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return AbstractValue("bool", 1)
            if isinstance(node.value, int):
                return AbstractValue(
                    "int", node.value if node.value >= 0 else None
                )
            if isinstance(node.value, float):
                return AbstractValue("float", None)
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            path = dotted_path(node)
            if path is not None and len(path) == 2 and path[0] == "self":
                return self.attr_env.get(path[1], UNKNOWN)
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, ast.Invert) and operand.is_numpy_int:
                return AbstractValue(
                    operand.dtype, _dtype_max(operand.dtype or "")
                )
            return AbstractValue(operand.dtype, None)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            if isinstance(node.slice, ast.expr):
                self.eval(node.slice)
            # Element of a typed array: bounded by the dtype only.
            return AbstractValue(
                base.dtype if base.is_numpy_int else None, None
            )
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a, b = self.eval(node.body), self.eval(node.orelse)
            dtype = a.dtype if a.dtype == b.dtype else None
            bound = (
                max(a.max_value, b.max_value)
                if a.max_value is not None and b.max_value is not None
                else None
            )
            return AbstractValue(dtype, bound)
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comparator in node.comparators:
                self.eval(comparator)
            return AbstractValue("bool", 1)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value)
            return UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.eval(element)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.eval(key)
            for value in node.values:
                self.eval(value)
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.eval(value.value)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                             ast.DictComp, ast.Lambda)):
            return UNKNOWN
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part)
            return UNKNOWN
        return UNKNOWN

    # -- calls -------------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> AbstractValue:
        arg_values = [self.eval(arg) for arg in node.args]
        for keyword in node.keywords:
            self.eval(keyword.value)
        func = dotted_path(node.func)
        if func is None:
            return UNKNOWN
        name = func[-1]
        if name in _WIDTHS and len(arg_values) == 1:
            bound = arg_values[0].max_value
            cap = _dtype_max(name)
            if bound is not None and cap is not None and bound > cap:
                bound = cap  # the conversion wraps; cap is still an upper bound
            return AbstractValue(name, bound)
        if name == "frombuffer":
            if not any(kw.arg == "count" for kw in node.keywords):
                self._flag(node, "ANZ304", (
                    "np.frombuffer without an explicit count= takes "
                    "whatever the buffer holds; a size mismatch becomes "
                    "silent garbage instead of an error"
                ))
            return AbstractValue(self._dtype_keyword(node), None)
        if name == "astype":
            target = self._dtype_argument(node)
            if target is None:
                return UNKNOWN
            source = (
                self.eval(node.func.value)
                if isinstance(node.func, ast.Attribute) else UNKNOWN
            )
            cap = _dtype_max(target)
            bound = source.max_value
            if bound is not None and cap is not None and bound > cap:
                bound = None
            return AbstractValue(target, bound)
        if name in _ARRAY_CTORS:
            return AbstractValue(self._dtype_keyword(node), None)
        if name in ("minimum", "maximum", "where", "clip"):
            dtypes = {v.dtype for v in arg_values if v.is_numpy_int}
            if len(dtypes) == 1:
                return AbstractValue(dtypes.pop(), None)
            return UNKNOWN
        return UNKNOWN

    def _dtype_keyword(self, node: ast.Call) -> Optional[str]:
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                path = dotted_path(keyword.value)
                if path is not None and path[-1] in _WIDTHS:
                    return path[-1]
        return None

    def _dtype_argument(self, node: ast.Call) -> Optional[str]:
        if node.args:
            path = dotted_path(node.args[0])
            if path is not None and path[-1] in _WIDTHS:
                return path[-1]
        return self._dtype_keyword(node)

    # -- arithmetic --------------------------------------------------------

    def _promote(self, node: ast.BinOp, a: AbstractValue,
                 b: AbstractValue) -> Optional[str]:
        if a.is_numpy_int and b.is_numpy_int:
            if a.signed != b.signed and max(a.width or 0, b.width or 0) == 64:
                self._flag(node, "ANZ303", (
                    f"mixed {a.dtype}/{b.dtype} arithmetic promotes to "
                    f"float64, silently losing integer precision above "
                    f"2**53"
                ))
                return "float"
            return a.dtype if (a.width or 0) >= (b.width or 0) else b.dtype
        if a.is_numpy_int:
            return a.dtype
        if b.is_numpy_int:
            return b.dtype
        if a.dtype == "int" and b.dtype == "int":
            return "int"
        if "float" in (a.dtype, b.dtype):
            return "float"
        return None

    def _eval_binop(self, node: ast.BinOp) -> AbstractValue:
        a = self.eval(node.left)
        b = self.eval(node.right)
        dtype = self._promote(node, a, b)
        result = AbstractValue(dtype, None)
        op = node.op
        cap = _dtype_max(dtype or "")
        a_max, b_max = a.max_value, b.max_value

        if isinstance(op, (ast.LShift, ast.RShift)):
            width = a.width if a.is_numpy_int else (
                _WIDTHS[dtype][0] if dtype in _WIDTHS else None
            )
            if width is not None and b_max is not None and b_max >= width:
                direction = "<<" if isinstance(op, ast.LShift) else ">>"
                self._flag(node, "ANZ301", (
                    f"{dtype} {direction} by a count provably reaching "
                    f"{b_max} >= the {width}-bit width; numpy wraps the "
                    f"shift count, producing a wrong value silently"
                ))
                return AbstractValue(dtype, None)
            if isinstance(op, ast.RShift):
                return AbstractValue(dtype, a_max)
            if a_max is not None and b_max is not None and b_max < 80:
                bound = a_max << b_max
                if cap is not None:
                    bound = min(bound, cap)
                return AbstractValue(dtype, bound)
            return result
        if isinstance(op, ast.Mult):
            if dtype == "uint64":
                u64_max = (1 << 64) - 1
                bound_a = a_max if a_max is not None else u64_max
                bound_b = b_max if b_max is not None else u64_max
                if bound_a * bound_b > u64_max:
                    self._flag(node, "ANZ302", (
                        f"uint64 product can reach "
                        f"{bound_a:#x} * {bound_b:#x} > 2**64-1 and wraps "
                        f"silently"
                    ))
                    return AbstractValue(dtype, None)
            if a_max is not None and b_max is not None:
                bound = a_max * b_max
                if cap is not None:
                    bound = min(bound, cap)
                return AbstractValue(dtype, bound)
            return result
        if isinstance(op, ast.Add):
            if a_max is not None and b_max is not None:
                bound = a_max + b_max
                if cap is not None:
                    bound = min(bound, cap)
                return AbstractValue(dtype, bound)
            return result
        if isinstance(op, ast.Sub):
            # b >= 0 for the unsigned/literal operands we track, so the
            # minuend's bound survives (wrap-around only shrinks it).
            return AbstractValue(dtype, a_max)
        if isinstance(op, ast.BitAnd):
            bounds = [m for m in (a_max, b_max) if m is not None]
            return AbstractValue(dtype, min(bounds) if bounds else None)
        if isinstance(op, (ast.BitOr, ast.BitXor)):
            if a_max is not None and b_max is not None:
                bits = max(a_max.bit_length(), b_max.bit_length())
                return AbstractValue(dtype, (1 << bits) - 1)
            return result
        if isinstance(op, ast.Mod):
            if b_max is not None and b_max >= 1:
                return AbstractValue(dtype, b_max - 1)
            return AbstractValue(dtype, a_max)
        if isinstance(op, ast.FloorDiv):
            return AbstractValue(dtype, a_max)
        return result
