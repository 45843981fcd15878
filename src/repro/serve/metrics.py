"""Serving-layer instrumentation.

``ServeMetrics`` is the counters object every ``SnapshotRouter`` carries:
how much traffic the compiled image absorbed, how often an update had
to recompile a sub-cell of the image rather than patch it, and what
whole recompiles cost.  It is deliberately a plain mutable object — the
serving hot loop bumps attributes directly — with ``to_dict``/``rows``
views for JSON emission and ``analysis.report.format_table`` rendering.
"""

from __future__ import annotations

from typing import Dict, List


class ServeMetrics:
    """Counters for one ``SnapshotRouter`` instance."""

    __slots__ = (
        "lookups_served", "batches_served",
        "updates_applied", "read_retries", "replans",
        "snapshots_compiled", "last_recompile_seconds",
        "total_recompile_seconds",
        "degraded_entered", "degraded_lookups", "degraded_updates",
        "recoveries", "recovery_failures", "setup_failures_absorbed",
        "last_degraded_reason",
    )

    def __init__(self) -> None:
        self.lookups_served = 0          # keys answered
        self.batches_served = 0          # lookup_batch calls
        self.updates_applied = 0         # announce + withdraw, lifetime
        self.read_retries = 0            # batches re-run after a patch
        self.replans: Dict[str, int] = {}  # sub-cell recompiles by reason
        self.snapshots_compiled = 0      # recompiles (includes the initial one)
        self.last_recompile_seconds = 0.0
        self.total_recompile_seconds = 0.0
        self.degraded_entered = 0        # HEALTHY -> DEGRADED transitions
        self.degraded_lookups = 0        # keys answered by the trie fallback
        self.degraded_updates = 0        # updates applied to the trie fallback
        self.recoveries = 0              # DEGRADED -> HEALTHY transitions
        self.recovery_failures = 0       # recovery rebuilds that failed
        self.setup_failures_absorbed = 0  # setup errors retried successfully
        self.last_degraded_reason = ""   # why the router last degraded

    # -- event hooks ---------------------------------------------------------

    def record_batch(self, keys: int) -> None:
        self.batches_served += 1
        self.lookups_served += keys

    def record_update(self) -> None:
        self.updates_applied += 1

    def record_recompile(self, seconds: float) -> None:
        self.snapshots_compiled += 1
        self.last_recompile_seconds = seconds
        self.total_recompile_seconds += seconds

    # -- views --------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            name: getattr(self, name) for name in self.__slots__}
        payload["replans"] = dict(self.replans)
        return payload

    def rows(self) -> List[Dict[str, object]]:
        """``format_table``-ready key/value rows."""
        return [
            {"metric": name, "value": value}
            for name, value in sorted(self.to_dict().items())
        ]
