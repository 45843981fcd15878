"""Lint output formats: human text and machine JSON."""

from __future__ import annotations

import json
from typing import Dict, Sequence

from .engine import Violation


def format_text(violations: Sequence[Violation]) -> str:
    """flake8-style ``path:line:col: CODE message`` lines plus a summary."""
    if not violations:
        return "chisel-check: no violations"
    lines = [violation.format() for violation in violations]
    by_code: Dict[str, int] = {}
    for violation in violations:
        by_code[violation.code] = by_code.get(violation.code, 0) + 1
    summary = ", ".join(
        f"{code} x{count}" for code, count in sorted(by_code.items())
    )
    lines.append(f"chisel-check: {len(violations)} violation(s) ({summary})")
    return "\n".join(lines)


def violations_document(violations: Sequence[Violation]) -> Dict[str, object]:
    """``{"count": N, "violations": [{path, line, col, code, message}]}``:
    the JSON body of ``check --json`` and ``analyze --json``."""
    return {
        "count": len(violations),
        "violations": [
            {
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "code": violation.code,
                "message": violation.message,
            }
            for violation in violations
        ],
    }


def format_json(violations: Sequence[Violation]) -> str:
    """:func:`violations_document` as indented, key-sorted JSON."""
    return json.dumps(violations_document(violations), indent=2,
                      sort_keys=True)
