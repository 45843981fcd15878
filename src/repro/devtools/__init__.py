"""Developer tooling for the Chisel reproduction: static analysis.

Three layers, reachable through ``chisel-repro check`` and
``chisel-repro analyze``:

* :mod:`repro.devtools.lint` — an AST-based lint engine with Chisel-specific
  rules (CHZ001–CHZ009) guarding the coding invariants the collision-free
  construction depends on (explicit RNG threading, exact integer bit
  accounting, O(1) hot lookup paths, ``__slots__`` on hot classes,
  monotonic clocks for every measured interval).
* :mod:`repro.devtools.invariants` — a structural verifier that audits a
  *built* engine image against the paper's guarantees (§3.2, §4.2–§4.4).
* :mod:`repro.devtools.analyze` — a cross-module analyzer for the
  protocols *between* functions: ``# guarded-by:`` lock discipline, the
  publish protocol for patched and exported images, and numpy
  dtype/width bounds (ANZ101–ANZ304).
"""

from .analyze import AnalysisEngine, analysis_catalog
from .invariants import InvariantReport, InvariantViolation, verify_engine
from .lint import LintEngine, Violation

__all__ = [
    "AnalysisEngine",
    "InvariantReport",
    "InvariantViolation",
    "LintEngine",
    "Violation",
    "analysis_catalog",
    "verify_engine",
]
