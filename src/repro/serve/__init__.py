"""Snapshot-serving layer: a compiled image patched per update.

``SnapshotRouter`` serves batched lookups from a compiled ``BatchLookup``
image while announce/withdraw churn flows through the shadow path; each
update copies the words it wrote into the image under the update lock,
and lock-free readers retry when an update overlapped them (seqlock).
See docs/SERVING.md for the consistency model.
"""

from .metrics import ServeMetrics
from .snapshot import RecompilePolicy, RouterState, SnapshotRouter, overlay_mask

__all__ = [
    "RecompilePolicy",
    "RouterState",
    "ServeMetrics",
    "SnapshotRouter",
    "overlay_mask",
]
