"""Cross-module static analyzer: ``chisel-repro analyze``.

Layer 3 of the devtools stack.  Where the lint rules (layer 1) judge one
function at a time and the invariant catalog (layer 2) audits a built
image, this package checks the *protocols between* functions: the lock
discipline that keeps the serving stack's shared state consistent, the
publish protocol that hands patched and exported images to lock-free
readers, and the numpy dtype/width bounds that keep §4.2–§4.4
arithmetic exact in every module that imports numpy.  See
docs/STATIC_ANALYSIS.md for the pass catalog and the ``# guarded-by:``
annotation convention.

Findings reuse the lint layer's :class:`~repro.devtools.lint.Violation`
and ``# chisel: noqa[CODE]`` suppression machinery, so the reporters and
the CI gate work unchanged.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..lint.engine import PY_SUFFIX, Violation, _suppressed, parse_noqa
from .dtypeflow import check_dtype_flow
from .lockcheck import check_lock_discipline
from .model import ProjectModel
from .publish import check_publish_protocol

__all__ = [
    "AnalysisEngine",
    "ProjectModel",
    "analysis_catalog",
    "check_dtype_flow",
    "check_lock_discipline",
    "check_publish_protocol",
]

#: Stable code -> one-line summary, for ``--json`` consumers and docs.
ANALYSIS_CATALOG: Dict[str, str] = {
    "ANZ101": "guarded-by attribute accessed without the guarding lock "
              "held on every call path",
    "ANZ102": "locks acquired in inconsistent order across functions "
              "(deadlock-prone)",
    "ANZ203": "mutation of a zero-copy view of a published shared segment",
    "ANZ204": "segment exported then installed with no words_written() "
              "quiescence re-check in between",
    "ANZ205": "seqlock-pointer image mutated outside its lock or with no "
              "version bump before the mutation",
    "ANZ301": "numpy shift count provably reaches the dtype width "
              "(silently wraps)",
    "ANZ302": "uint64 product can exceed 2**64-1 (silently wraps)",
    "ANZ303": "mixed signed/unsigned 64-bit arithmetic promotes to "
              "float64 (precision loss)",
    "ANZ304": "np.frombuffer without an explicit count=",
}


def analysis_catalog() -> Dict[str, str]:
    """The pass catalog as ``{code: summary}`` (stable, sorted)."""
    return dict(sorted(ANALYSIS_CATALOG.items()))


class AnalysisEngine:
    """Build one whole-program model and run every analysis pass."""

    def analyze_sources(
        self, sources: Iterable[Tuple[str, str]]
    ) -> List[Violation]:
        """Analyze ``(path, source)`` pairs together as one program."""
        parsed: List[Tuple[str, str, ast.Module]] = []
        pragmas: Dict[str, Dict[int, Optional[FrozenSet[str]]]] = {}
        for path, source in sources:
            norm = path.replace(os.sep, "/")
            try:
                tree = ast.parse(source, filename=norm)
            except SyntaxError:
                # The lint layer owns syntax reporting (CHZ000); a file
                # that does not parse simply cannot join the model.
                continue
            parsed.append((norm, source, tree))
            pragmas[norm] = parse_noqa(source)
        project = ProjectModel.build(parsed)
        violations: List[Violation] = []
        violations.extend(check_lock_discipline(project))
        violations.extend(check_publish_protocol(project))
        violations.extend(check_dtype_flow(project))
        kept = [
            violation for violation in violations
            if not _suppressed(violation, pragmas.get(violation.path, {}))
        ]
        kept.sort(key=lambda violation: violation.sort_key)
        return kept

    def analyze_source(self, source: str,
                       path: str = "<memory>") -> List[Violation]:
        """Single-module convenience entry point (tests, REPL)."""
        return self.analyze_sources([(path, source)])

    def analyze_paths(self, paths: Iterable[str]) -> List[Violation]:
        """Analyze files and directory trees as one program."""
        sources: List[Tuple[str, str]] = []
        for path in paths:
            if os.path.isdir(path):
                for root, dirs, files in os.walk(path):
                    dirs[:] = sorted(
                        d for d in dirs
                        if d not in ("__pycache__", ".git")
                        and not d.endswith(".egg-info")
                    )
                    for name in sorted(files):
                        if name.endswith(PY_SUFFIX):
                            full = os.path.join(root, name)
                            with open(full, "r", encoding="utf-8") as handle:
                                sources.append((full, handle.read()))
            else:
                with open(path, "r", encoding="utf-8") as handle:
                    sources.append((path, handle.read()))
        return self.analyze_sources(sources)
