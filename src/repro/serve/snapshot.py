"""Snapshot serving over a live ``ForwardingEngine``, patched per update.

The ROADMAP regime — heavy lookup traffic while BGP churn mutates the
tables — needs both halves of the repository at once: the compiled
``BatchLookup`` fast path answers millions of keys per second, while the
scalar shadow path is the authoritative §4.4 engine.  ``SnapshotRouter``
keeps the first equal to the second:

* **Writes** (announce/withdraw) go through the engine's normal §4.4
  shadow-then-hardware path, which logs every word it writes.  Under the
  update lock the router then copies that burst — ~10 words — into the
  served image (§4.4: "transfer the modified portions of the data
  structure to the hardware engine").  Writes that cannot be named word
  by word (a group re-setup, a purge, a scrub repair, a capacity
  rebuild) recompile just their sub-cell.
* **Reads** run lock-free against the one served image, seqlock style:
  a batch notes the image version under the lock, runs, and retries if
  an update bumped the version meanwhile.
* **Copies** of the served image go through one method, ``image_cut``:
  under the update lock it patches in any writes made around the router
  and hands the image to a render callback.  Checkpoints and shard
  publishes are such copies, and so are the shard plane's word bursts
  (``track_changes``).  A whole compile (``recompile``) runs only at
  construction and after a recovery rebuild.

So the served image equals a fresh compile of the live engine after
every update (docs/SERVING.md), which only serves correct answers
because the compiled batch path is bit-exact with the scalar datapath
(the differential suite in tests/test_batch_differential.py is the gate).
"""

from __future__ import annotations

import pickle
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..baselines.binary_trie import BinaryTrie
from ..bloomier.filter import BloomierSetupError
from ..bloomier.peeling import PeelStallError
from ..bloomier.spillover import SpilloverCapacityError
from ..core.batch import BatchLookup, WordTracker, _MISS, normalize_keys
from ..core.chisel import ChiselLPM
from ..core.events import CapacityError, UpdateKind
from ..obs import LATENCY_BUCKETS, MetricsRegistry, get_registry
from ..prefix.prefix import Prefix
from ..prefix.table import RoutingTable
from ..router.fib import ForwardingEngine, PrefixLike
from ..router.nexthop import NextHopInfo
from .metrics import ServeMetrics

_OverlayArrays = List[Tuple[int, np.ndarray]]
_Rendered = TypeVar("_Rendered")

#: Lock-free batch attempts before a batch is answered under the lock
#: (each retry means an update patched the image mid-batch).
_READ_RETRIES = 3


def overlay_mask(keys: np.ndarray, overlay: _OverlayArrays,
                 width: int) -> np.ndarray:
    """True for keys covered by any of the ``overlay`` prefixes.

    Nothing in the package reads it any more (the shard plane ships
    word bursts); it stays for the end-to-end benchmark's traced run.
    """
    mask = np.zeros(keys.shape, dtype=bool)
    for length, values in overlay:
        if length == 0:
            # The default route changed: every key is affected.
            mask[:] = True
            break
        shifted = keys >> np.uint64(width - length)
        slots = np.minimum(
            np.searchsorted(values, shifted), len(values) - 1
        )
        mask |= values[slots] == shifted
    return mask

#: Setup-path failures the router absorbs rather than propagates: Bloomier
#: peel non-convergence, spillover TCAM overflow, and sub-cell capacity
#: exhaustion that a growth rebuild could not cure.
_SETUP_FAILURES = (
    BloomierSetupError, SpilloverCapacityError, CapacityError, PeelStallError,
)


class RouterState(Enum):
    """The serving state machine (docs/RESILIENCE.md §state-machine).

    ``HEALTHY``    lookups from the compiled image, patched per update.
    ``DEGRADED``   Chisel tables are untrustworthy; every lookup goes
                   through an exact software trie rebuilt from the §4.4
                   shadow routes.  Slower, never wrong.
    ``RECOVERING`` a full engine rebuild from the trie is in progress;
                   reads still come from the trie until it succeeds.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    RECOVERING = "recovering"


#: ``serve_state`` gauge encoding.
_STATE_GAUGE = {
    RouterState.HEALTHY: 0, RouterState.DEGRADED: 1, RouterState.RECOVERING: 2,
}


@dataclass(frozen=True)
class RecompilePolicy:
    """Accepted by ``SnapshotRouter(policy=)`` and read by nothing.

    The router's image is patched per update and the shard plane's
    copies by word bursts, so no publish or recompile is ever due.  The
    class stays only because the end-to-end benchmark still passes one.
    """

    max_overlay: int = 512
    max_age: float = 5.0


def _call_every(hooks: Sequence[Callable[..., None]],
                record: Tuple[object, ...]) -> None:
    """Call every journal hook with ``record``, then re-raise the first
    exception any of them raised."""
    first: Optional[Exception] = None
    for hook in hooks:
        try:
            hook(*record)
        except Exception as error:
            if first is None:
                first = error
    if first is not None:
        raise first


def _serve_collector(router: "SnapshotRouter"):
    """A registry collector folding ``ServeMetrics`` into ``serve_*`` gauges.

    Holds only a weak reference: when the router is garbage-collected the
    collector returns False and the registry drops it.  With several
    routers alive in one process the gauges reflect the most recently
    collected one (a single serving router per process is the expected
    deployment).
    """
    ref = weakref.ref(router)

    def collect(registry: MetricsRegistry):
        live = ref()
        if live is None:
            return False
        for name, value in live.metrics.to_dict().items():
            if isinstance(value, (int, float)):
                registry.gauge(f"serve_{name}").set(value)
            elif isinstance(value, dict):  # replans by reason
                for key, count in value.items():
                    registry.gauge(f"serve_{name}_{key}").set(count)
        registry.gauge("serve_snapshot_age_seconds").set(live.snapshot_age)
        registry.gauge("serve_routes").set(len(live.fib))
        return True

    return collect


class SnapshotRouter:
    """Serve ``lookup_batch`` traffic from a compiled image while updates churn."""

    def __init__(self, fib: ForwardingEngine,
                 policy: Optional[RecompilePolicy] = None,
                 clock=time.monotonic,
                 backoff_initial: float = 1.0,
                 backoff_max: float = 60.0,
                 initial_snapshot: Optional[BatchLookup] = None,
                 seq: int = 0):
        self.fib = fib
        self.width = fib.width
        self.policy = policy or RecompilePolicy()
        self.metrics = ServeMetrics()
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self._state = RouterState.HEALTHY  # guarded-by: _lock
        self._fallback: Optional[BinaryTrie] = None  # guarded-by: _lock
        self._backoff = backoff_initial  # guarded-by: _lock
        self._recover_at = 0.0  # guarded-by: _lock
        self._clock = clock
        self._lock = threading.RLock()
        self._journals: Tuple[Callable[..., None], ...] = ()  # guarded-by: _lock
        # The last applied update's number (a cold start's: its checkpoint's).
        self._seq = seq  # guarded-by: _lock
        self._tracker: Optional[WordTracker] = None  # guarded-by: _lock
        # Bumped under the lock before every change to the served image;
        # a lock-free batch that sees it move retries (seqlock).
        self._version = 0  # guarded-by: _lock
        self._snapshot: BatchLookup = None  # seqlock-pointer: _lock _version
        self._compiled_at = 0.0  # guarded-by: _lock
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        registry = get_registry()
        self._obs_lock_hold = registry.histogram(
            "serve_lock_hold_seconds", LATENCY_BUCKETS,
            "update-lock hold times (announce/withdraw/patch/swap)",
        )
        self._obs_compile = registry.histogram(
            "serve_recompile_compile_seconds", LATENCY_BUCKETS,
            "whole snapshot compile (holds the update lock; rare)",
        )
        self._obs_swap = registry.histogram(
            "serve_recompile_swap_seconds", LATENCY_BUCKETS,
            "snapshot swap phase of a whole compile",
        )
        self._obs_degraded = registry.counter(
            "serve_degraded_total", "transitions into DEGRADED serving")
        self._obs_recoveries = registry.counter(
            "serve_recoveries_total", "successful DEGRADED -> HEALTHY rebuilds")
        self._obs_recovery_failures = registry.counter(
            "serve_recovery_failures_total",
            "recovery rebuild attempts that failed (backoff doubled)",
        )
        self._obs_recovery_build = registry.histogram(
            "serve_recovery_rebuild_seconds", LATENCY_BUCKETS,
            "full engine rebuild during recovery (rare; holds the lock)",
        )
        self._obs_state = registry.gauge(
            "serve_state", "0=HEALTHY 1=DEGRADED 2=RECOVERING")
        registry.register_collector(_serve_collector(self))
        if initial_snapshot is None:
            self.recompile()
        else:
            # Cold start from a persisted image (repro.store): serve the
            # mapped image immediately instead of paying a compile.  It
            # was cut with the FIB it arrives beside, so it is current
            # for that engine; later updates patch its private pages.
            if initial_snapshot.width != fib.width:
                raise ValueError(
                    f"initial snapshot width {initial_snapshot.width} "
                    f"disagrees with FIB width {fib.width}"
                )
            with self._held():
                self._swap(initial_snapshot, self._clock())

    @contextmanager
    def _held(self):
        """Acquire the update lock, timing how long it is held."""
        self._lock.acquire()
        started = time.perf_counter()
        try:
            yield
        finally:
            self._obs_lock_hold.observe(time.perf_counter() - started)
            self._lock.release()

    # -- persistence hooks -------------------------------------------------------

    def add_journal(self, journal: Callable[..., None]) -> int:
        """Add a durable-update journal hook after those installed.

        ``journal(record, payload)`` — the update's numbered
        :class:`~repro.store.records.LogRecord` and its one encoding —
        is called under the update lock after every route change
        *applies* — announce (healthy, absorbed-retry and degraded
        alike) and effective withdraw — so the journaled order is
        exactly the application order, which is what makes log replay
        deterministic (see repro.store).  Hooks run in the order added,
        every one of them even when an earlier one raises: the router
        serves the update either way, so a failed store append must not
        also keep it from the replicas.  The first exception then
        propagates to the updater: an update that could not be made
        durable must not be silently acknowledged.  Each consumer
        (store, replication) removes only its own hook.
        Returns the seq the hook's first record follows.
        """
        with self._lock:
            self._journals += (journal,)
            return self._seq

    def remove_journal(self, journal: Callable[..., None]) -> None:
        """Remove one hook (a bound method matches itself); the others stay."""
        with self._lock:
            self._journals = tuple(
                hook for hook in self._journals if hook != journal)

    def set_journal(self, journal: Optional[Callable[..., None]]) -> None:
        """Replace every hook by ``journal`` (None clears all); a wrapper
        of :attr:`journal` installed so owns the hooks it calls."""
        with self._lock:
            self._journals = () if journal is None else (journal,)

    @property
    def journal(self) -> Optional[Callable[..., None]]:
        """The installed hooks as one callable (None when there are none)."""
        with self._lock:
            hooks = self._journals

        def journal(*record) -> None:
            _call_every(hooks, record)

        return journal if hooks else None

    @property
    def seq(self) -> int:
        """The number of the last applied update, journaled or not."""
        with self._lock:
            return self._seq

    def _journal_update(self, op: str, prefix: Prefix,
                        gateway: str = "", interface: str = "") -> None:
        """Number one applied update; journal it to every hook (lock held)."""
        self._seq += 1
        if not self._journals:
            return
        # Imported here, not at the top: the store package's init imports
        # this module.
        from ..store import records
        record = records.LogRecord(
            records.ANNOUNCE if op == "announce" else records.WITHDRAW,
            self._seq, prefix.value, prefix.length, gateway, interface)
        _call_every(self._journals, (record, records.encode_record(record)))

    def track_changes(self, tracker: WordTracker) -> None:
        """Install the shard plane's word tracker.

        Every patch of the served image feeds it under the update lock
        (``BatchLookup.patch``), and a whole image swapped in sets its
        ``resync``; its owner reads and clears it inside ``image_cut``.
        A router has one tracker: while another is installed, a second
        is refused with ``RuntimeError`` — each plane's cuts would clear
        words the other plane's workers still need.
        """
        with self._lock:
            if self._tracker is not None and self._tracker is not tracker:
                raise RuntimeError(
                    "the router already feeds a shard plane's tracker")
            self._tracker = tracker

    def untrack_changes(self, tracker: WordTracker) -> None:
        """Remove ``tracker`` if it is the one installed; another stays."""
        with self._lock:
            if self._tracker is tracker:
                self._tracker = None

    def image_cut(
            self, render: Callable[[BatchLookup], _Rendered],
    ) -> Tuple[Optional[_Rendered], bool]:
        """The one way to copy the served image out of the router.

        Under the update lock, patch in any engine writes made around
        the router, then call ``render(image)``, which must copy what it
        needs: the next update patches the image in place.  Returns
        ``(rendered, healthy)``; nothing is rendered unless HEALTHY, so
        a copy never carries tables the router stopped trusting.
        Checkpoints, shard publishes and shard bursts are cut here.
        """
        with self._lock:
            if self._state is not RouterState.HEALTHY:
                return None, False
            if self._snapshot.stale:
                self._apply_burst()
                if self._state is not RouterState.HEALTHY:
                    return None, False  # the patch failed and degraded
            return render(self._snapshot), True

    def persistence_cut(
            self, render: Callable[[BatchLookup, bytes], _Rendered],
    ) -> Tuple[Optional[_Rendered], bool]:
        """An ``image_cut`` plus the pickled FIB, for the checkpoint writer.

        ``render(image, fib_blob)`` runs under the same lock hold, so
        the image and the blob describe one instant: a torn cut would
        be silently wrong forever.
        """
        return self.image_cut(lambda image: render(
            image, pickle.dumps(self.fib, protocol=pickle.HIGHEST_PROTOCOL)))

    # -- update path -------------------------------------------------------------

    def announce(self, prefix: PrefixLike, gateway: str, interface: str):
        """Install a route; the served image is patched before returning.

        A setup-path failure (peel non-convergence, spillover overflow,
        capacity exhaustion) never propagates to the caller: the router
        first retries once after a maintenance pass (which frees TCAM
        entries and dirty slots), then degrades to the exact software
        path with the update applied there.
        """
        with self._held():
            resolved = self.fib._prefix(prefix)
            if self._state is not RouterState.HEALTHY:
                return self._degraded_announce(resolved, gateway, interface)
            try:
                kind = self.fib.announce(resolved, gateway, interface)
            except _SETUP_FAILURES as error:
                return self._absorb_announce_failure(
                    resolved, gateway, interface, error
                )
            self._applied()
            self._journal_update("announce", resolved, gateway, interface)
        return kind

    def withdraw(self, prefix: PrefixLike):
        """Remove a route; the served image is patched before returning.

        The withdraw itself cannot hit the Index Table setup path, but
        the maintenance purge it may trigger can; such a failure leaves
        the route correctly withdrawn and degrades serving rather than
        propagating.
        """
        with self._held():
            resolved = self.fib._prefix(prefix)
            if self._state is not RouterState.HEALTHY:
                return self._degraded_withdraw(resolved)
            try:
                kind = self.fib.withdraw(resolved)
            except _SETUP_FAILURES as error:
                # The route was removed and its reference released before
                # the purge/rebuild blew up; only serving trust is lost.
                self._degrade(f"withdraw-triggered maintenance: {error}")
                self._journal_update("withdraw", resolved)
                return UpdateKind.WITHDRAW
            self._applied()
            if kind is not None:
                self._journal_update("withdraw", resolved)
        return kind

    def _absorb_announce_failure(self, prefix: Prefix, gateway: str,
                                 interface: str, error: Exception):
        """Bounded re-setup, then degrade.  Lock held; returns the kind."""
        self._release_orphaned_reference(gateway, interface)
        try:
            # Maintenance purges dirty entries, drains the spillover TCAM
            # and compacts regions — exactly the resources whose
            # exhaustion makes a setup fail.  Retry once on the cleaner
            # engine before giving up on the hardware path.
            self.fib.engine.maintenance()
            kind = self.fib.announce(prefix, gateway, interface)
        except _SETUP_FAILURES as retry_error:
            self._release_orphaned_reference(gateway, interface)
            self._degrade(f"announce {prefix}: {retry_error}")
            return self._degraded_announce(prefix, gateway, interface)
        self.metrics.setup_failures_absorbed += 1
        get_registry().trace(
            "serve_setup_failure_absorbed",
            prefix=str(prefix), error=str(error),
        )
        self._applied()
        self._journal_update("announce", prefix, gateway, interface)
        return kind

    def _release_orphaned_reference(self, gateway: str, interface: str) -> None:
        """Undo the next-hop acquire of a failed ``fib.announce``.

        The FIB takes its reference before programming the engine; when
        the engine throws (and rolls the route back) that reference has
        no owner.  Only the new-collapsed-prefix path can throw, and
        there the route never existed, so exactly one release is owed.
        """
        ident = self.fib.next_hops.id_for(NextHopInfo(gateway, interface))
        if ident is not None:
            self.fib.next_hops.release(ident)

    def _degraded_announce(self, prefix: Prefix, gateway: str,
                           interface: str):
        """Apply an announce to the trie fallback (lock held)."""
        new_id = self.fib.next_hops.acquire(NextHopInfo(gateway, interface))
        old_id = self._fallback.get(prefix)
        self._fallback.insert(prefix, new_id)
        if old_id is not None:
            self.fib.next_hops.release(old_id)
        self.metrics.degraded_updates += 1
        self._journal_update("announce", prefix, gateway, interface)
        return UpdateKind.NEXT_HOP if old_id is not None else UpdateKind.ADD_PC

    def _degraded_withdraw(self, prefix: Prefix):
        """Apply a withdraw to the trie fallback (lock held)."""
        removed = self._fallback.remove(prefix)
        if removed is None:
            return None
        self.fib.next_hops.release(removed)
        self.metrics.degraded_updates += 1
        self._journal_update("withdraw", prefix)
        return UpdateKind.WITHDRAW

    def _applied(self) -> None:
        """An update reached the engine: patch the image (lock held)."""
        self.metrics.record_update()
        self._apply_burst()

    def _apply_burst(self) -> None:
        """Copy the words the engine logged into the served image (lock held).

        The version moves first, so a batch that overlaps the patch
        retries.  A patch that cannot compile a sub-cell leaves the
        engine untrustworthy for the datapath: serve from the shadow.
        """
        self._version += 1
        try:
            replans = self._snapshot.patch(self._tracker)
        except Exception as error:
            self._degrade(f"image patch failed: {error}")
            return
        for _position, reason in replans:
            self.metrics.replans[reason] = (
                self.metrics.replans.get(reason, 0) + 1)

    # -- lookup path ----------------------------------------------------------------

    def lookup_batch(self, keys) -> np.ndarray:
        """Next-hop ids for a key batch; -1 marks misses.

        The batch runs against the served image with no lock held; the
        image version is noted under the lock first and re-read after,
        and a batch an update overlapped is re-run (then, after
        ``_READ_RETRIES`` overlaps, answered under the lock).

        Input is normalized exactly as ``BatchLookup.lookup_batch``,
        once per call: 1-D, scalars accepted, negative keys and keys
        wider than the engine rejected with a clear ``ValueError``.
        """
        key_array = normalize_keys(keys, self.width)
        for _attempt in range(_READ_RETRIES):
            with self._held():
                if self._state is not RouterState.HEALTHY:
                    return self._degraded_batch(key_array)
                snapshot, version = self._snapshot, self._version
            result = snapshot.lookup_keys(key_array)
            # Single int read; a stale value only costs a retry.
            if self._version == version:  # chisel: noqa[ANZ101]
                break
            self.metrics.read_retries += 1
        else:
            with self._held():
                if self._state is not RouterState.HEALTHY:
                    return self._degraded_batch(key_array)
                result = self._snapshot.lookup_keys(key_array)
        self.metrics.record_batch(len(key_array))
        return result

    def lookup_many(self, keys) -> List[Optional[int]]:
        """Convenience: python list with None for misses."""
        return [
            None if value == _MISS else int(value)
            for value in self.lookup_batch(keys)
        ]

    def forward_batch(self, keys) -> List[Optional[NextHopInfo]]:
        """Resolved forwarding decisions for a key batch."""
        resolve = self.fib.next_hops.resolve
        return [
            None if value == _MISS else resolve(int(value))
            for value in self.lookup_batch(keys)
        ]

    def _degraded_batch(self, key_array: np.ndarray) -> np.ndarray:
        """Answer a batch from the exact trie fallback (lock held).

        Two orders of magnitude slower than the compiled snapshot, and
        never wrong — the degraded-mode contract.
        """
        result = np.full(key_array.shape, _MISS, dtype=np.int64)
        lookup = self._fallback.lookup
        for position in range(len(key_array)):
            answer = lookup(int(key_array[position]))
            if answer is not None:
                result[position] = answer
        self.metrics.record_batch(len(key_array))
        self.metrics.degraded_lookups += len(key_array)
        return result

    def overlay_arrays(self) -> _OverlayArrays:
        """Always empty: the served image is current after every update.
        Read by nothing in the package; the end-to-end benchmark calls it."""
        return []

    # -- degradation and recovery --------------------------------------------------------

    @property
    def state(self) -> RouterState:
        # Single reference read; the enum value is immutable.
        return self._state  # chisel: noqa[ANZ101]

    def scrub(self):
        """Run a table scrub on the live engine; degrade if it finds
        uncorrectable state.  Returns the ``ScrubReport`` (None while
        already degraded — there is no trustworthy engine to scrub)."""
        with self._held():
            if self._state is not RouterState.HEALTHY:
                return None
            report = self.fib.engine.scrub()
            if not report.healthy:
                self._degrade(
                    f"scrub uncorrectable: {report.uncorrectable[0]}"
                )
            elif report.total_repaired:
                self._apply_burst()
        return report

    def _degrade(self, reason: str) -> None:
        """Fall back to exact trie serving (lock held).

        The trie is rebuilt from the §4.4 shadow routes — the ground
        truth that survives hardware-table corruption — and carries the
        routes' existing next-hop references (no re-acquire).
        """
        if self._state is RouterState.DEGRADED:
            return
        trie = BinaryTrie(self.width)
        for prefix, hop_id in self.fib.engine.iter_routes():
            trie.insert(prefix, hop_id)
        self._fallback = trie
        self._state = RouterState.DEGRADED
        self._backoff = self.backoff_initial
        self._recover_at = self._clock() + self._backoff
        self.metrics.degraded_entered += 1
        self.metrics.last_degraded_reason = reason
        self._obs_degraded.inc()
        self._obs_state.set(_STATE_GAUGE[self._state])
        get_registry().trace("serve_degraded", reason=reason,
                             routes=len(trie))

    def _maybe_recover(self) -> bool:
        """Attempt recovery if the backoff window has elapsed.

        Deliberately not via ``_held()``: a recovery rebuild holds the
        lock for a full engine build, which would swamp the update-path
        ``serve_lock_hold_seconds`` histogram (and its p99 gate) with a
        rare, known-expensive event — it is timed separately as
        ``serve_recovery_rebuild_seconds``.
        """
        with self._lock:
            if (self._state is not RouterState.DEGRADED
                    or self._clock() < self._recover_at):
                return False
            started = time.perf_counter()
            try:
                return self._attempt_recovery()
            finally:
                self._obs_recovery_build.observe(
                    time.perf_counter() - started)

    def _attempt_recovery(self) -> bool:
        """Rebuild a fresh engine from the trie fallback (lock held).

        Success swaps the engine in, recompiles a snapshot and returns
        to HEALTHY; failure doubles the backoff and stays DEGRADED.
        Rebuilding under the lock keeps updates that land meanwhile from
        being lost (recovery is rare; correctness over concurrency).
        """
        self._state = RouterState.RECOVERING
        self._obs_state.set(_STATE_GAUGE[self._state])
        table = RoutingTable(width=self.width)
        for prefix, hop_id in self._fallback.items():
            table.add(prefix, hop_id)
        try:
            engine = ChiselLPM.build(table, self.fib.config)
        except Exception as error:
            self._state = RouterState.DEGRADED
            self._backoff = min(self._backoff * 2, self.backoff_max)
            self._recover_at = self._clock() + self._backoff
            self.metrics.recovery_failures += 1
            self._obs_recovery_failures.inc()
            self._obs_state.set(_STATE_GAUGE[self._state])
            get_registry().trace(
                "serve_recovery_failed", error=str(error),
                next_attempt_in=self._backoff,
            )
            return False
        # The rebuilt engine holds the same next-hop ids the trie routes
        # held; references transfer with them.
        self.fib.replace_engine(engine)
        self._fallback = None
        self._state = RouterState.HEALTHY
        self._backoff = self.backoff_initial
        self.metrics.recoveries += 1
        self.metrics.last_degraded_reason = ""
        self._obs_recoveries.inc()
        self._obs_state.set(_STATE_GAUGE[self._state])
        get_registry().trace("serve_recovered", routes=len(engine))
        self.recompile()
        return True

    # -- snapshot lifecycle --------------------------------------------------------------

    @property
    def snapshot_age(self) -> float:
        """Seconds since the served image was last compiled whole."""
        # Single float read; the age gauge is advisory.
        return self._clock() - self._compiled_at  # chisel: noqa[ANZ101]

    @property
    def overlay_size(self) -> int:
        """Always 0, like ``overlay_arrays``; kept for the same reader."""
        return 0

    def recompile(self, post_compile=None, commit=None,
                  discard=None) -> float:
        """Compile the live engine whole and serve it; returns seconds.

        Every update patches the served image, so only construction and
        recovery's rebuild compile whole.  The compile (~100 ms at 100k
        routes) runs under the update lock, so no update can land
        mid-compile.  Like the recovery rebuild it takes the raw lock:
        its time goes to ``serve_recompile_compile_seconds``, not to the
        update-path lock-hold histogram.  A compile error degrades the
        router to the exact trie.

        ``post_compile(snapshot) -> extra`` runs after the compile and
        ``commit(snapshot, extra)`` after the swap, both under the lock.
        ``discard`` is accepted for callers that wrap this method; no
        compile is ever discarded.
        """
        started = self._clock()
        with self._lock:
            if self._state is not RouterState.HEALTHY:
                # No trustworthy engine to compile from; reads are served
                # by the trie fallback until recovery succeeds.
                return 0.0
            compile_started = time.perf_counter()
            try:
                snapshot = BatchLookup(self.fib.engine)
            except Exception as error:
                # The engine state itself cannot be compiled: serve
                # exactly from the shadow until a recovery rebuild
                # replaces it.
                self._degrade(f"recompile failed: {error}")
                return 0.0
            self._obs_compile.observe(time.perf_counter() - compile_started)
            extra = post_compile(snapshot) if post_compile is not None else None
            elapsed = self._swap(snapshot, started)
            if commit is not None:
                commit(snapshot, extra)
            return elapsed

    def _swap(self, snapshot: BatchLookup, started: float) -> float:
        """Serve a whole image current for the engine (lock held).

        Its plans already hold every write (it was compiled under the
        lock, or cut beside the FIB a cold start unpickled); binding it
        starts fresh write logs.
        """
        swap_started = time.perf_counter()
        self._version += 1
        snapshot.bind(self.fib.engine)
        self._snapshot = snapshot
        if self._tracker is not None:
            self._tracker.resync_for("swap")
        self._compiled_at = self._clock()
        elapsed = self._compiled_at - started
        self.metrics.record_recompile(elapsed)
        self._obs_swap.observe(time.perf_counter() - swap_started)
        return elapsed

    def maybe_recompile(self) -> bool:
        """The recovery heartbeat; returns True when a rebuild succeeded.

        A healthy router never needs a recompile (every update patches
        the image), so this returns False.  While degraded, once the
        backoff window elapses, a rebuild from the trie is attempted.
        """
        with self._held():
            if self._state is not RouterState.HEALTHY:
                return self._maybe_recover()
        return False

    # -- background heartbeat ------------------------------------------------------------------

    def start(self, interval: float = 0.05) -> None:
        """Run ``maybe_recompile`` from a daemon thread every ``interval`` s."""
        if self._thread is not None:
            raise RuntimeError("background heartbeat already running")
        self._stop_event.clear()

        def worker() -> None:
            while not self._stop_event.wait(interval):
                self.maybe_recompile()

        self._thread = threading.Thread(
            target=worker, name="chisel-snapshot-recompiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background heartbeat (idempotent)."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "SnapshotRouter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection ------------------------------------------------------------------------

    def metrics_dict(self) -> Dict[str, object]:
        """Counters plus live gauges, ready for JSON emission.

        The gauge sources are read under the update lock so the emitted
        (age, stale, routes, state) tuple is one coherent picture.  Raw
        ``_lock`` rather than
        ``_held()``: metrics scrapes should not pollute the update-path
        lock-hold histogram.
        """
        payload = self.metrics.to_dict()
        with self._lock:
            payload["snapshot_age_seconds"] = round(self.snapshot_age, 6)
            payload["snapshot_stale"] = (
                self._snapshot.stale if self._snapshot is not None else True
            )
            payload["routes"] = (
                len(self._fallback) if self._fallback is not None
                else len(self.fib)
            )
            payload["state"] = self._state.value
        return payload

    def verify_sample(self, keys: Sequence[int]) -> int:
        """Assert served answers match the live scalar path; returns count.

        A serving-time self-check (cheap on a sample): any divergence is
        a consistency-model violation, raised loudly rather than routed.
        """
        served = self.lookup_batch(list(keys))
        with self._lock:
            if self._fallback is not None:
                expected = [self._fallback.lookup(int(key)) for key in keys]
            else:
                expected = [self.fib.engine.lookup(int(key)) for key in keys]
        for key, got, want in zip(keys, served, expected):
            want_id = _MISS if want is None else want
            if got != want_id:
                raise AssertionError(
                    f"snapshot divergence at key {int(key):#x}: "
                    f"served {int(got)}, live path says {int(want_id)}"
                )
        return len(keys)
