"""Frozen copy of the PR 5 scrub-mid-export bug (fixed in the live tree).

The original coordinator exported the router's snapshot to shared
memory outside the router's lock and installed it without re-checking
``words_written()`` — so a scrub repair (or a late update) landing
between the export and the install published a half-repaired table
image to every worker.  The live coordinator exports inside
``SnapshotRouter.image_cut``, under the update lock, so nothing can land
mid-export; this copy preserves the unfenced export→install pair so the
analyzer's ANZ204 pass keeps a regression anchor
(tests/test_devtools_analyze.py asserts exactly one finding).
"""

from repro.shard.codec import SharedSnapshot


class RacyPublisher:
    """Publishes whatever the router holds, with no quiescence fence."""

    def __init__(self, router):
        self.router = router
        self.generation = 0

    def publish_current(self):
        with self.router._lock:
            snapshot = self.router._snapshot
        segment = SharedSnapshot.export(snapshot, [], self.generation + 1)
        self._install(segment)

    def _install(self, segment):
        self.generation = segment.generation
