"""chisel-check: AST lint rules for the Chisel reproduction.

The engine walks Python sources with :class:`ast.NodeVisitor`-based rules
registered under stable codes (``CHZ001``..).  Violations can be suppressed
per line with ``# chisel: noqa[CODE]`` (or a blanket ``# chisel: noqa``).

Run it as ``chisel-repro check --lint <paths>``.
"""

from .engine import LintEngine, Violation, parse_noqa
from .reporters import format_json, format_text, violations_document
from .rules import REGISTRY, Rule, all_rules, rule_catalog

__all__ = [
    "LintEngine",
    "REGISTRY",
    "Rule",
    "Violation",
    "all_rules",
    "format_json",
    "format_text",
    "parse_noqa",
    "rule_catalog",
    "violations_document",
]
