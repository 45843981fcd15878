"""Vectorized batch lookups (numpy), for software-throughput use cases.

The scalar ``ChiselLPM.lookup`` models the hardware datapath one key at a
time; offline consumers (trace analysis, simulation sweeps, test oracles)
want millions of lookups, and every step of the datapath — tabulation
hashing, the XOR decode, the filter compare, the bit-vector rank — is a
pure array operation.  ``BatchLookup`` compiles each sub-cell of a built
engine into one flat plan (``core.flatpath``) once and then answers whole
key batches at a time, typically one to two orders of magnitude faster
per key.

Restrictions: key widths up to 64 bits (IPv4 comfortably; not IPv6 —
numpy has no 128-bit integers) and a snapshot semantics: after updating
the engine, either rebuild the ``BatchLookup`` or :meth:`~BatchLookup.patch`
it with the words the update wrote (``stale`` turns True when the
engine's update counter moves past what the plans hold).  A
:class:`WordTracker` gathers what the patches wrote, so a copy of the
image elsewhere (a shard worker's) catches up with
:meth:`~BatchLookup.write_burst`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..prefix.table import NextHop
from .chisel import ChiselLPM
from .flatpath import RECORD_ARRAYS, FlatSubCellPlan
from .subcell import ChiselSubCell, WriteLog

_MISS = np.int64(-1)

#: One sub-cell's share of a burst: (position, arena_size, writes), each
#: write a (plan table, indices, current values) triple.
BurstCell = Tuple[int, int, List[Tuple[str, np.ndarray, np.ndarray]]]


def normalize_keys(keys, width: int = 64) -> np.ndarray:
    """Keys as a 1-D uint64 array, with clear errors for bad input.

    Accepts a scalar, any integer sequence, or an integer ndarray, and
    raises ``ValueError`` naming the first key outside ``[0, 2**width)``.
    The raw ``np.asarray(keys, dtype=np.uint64)`` this replaces had
    three sharp edges: 0-d input crashed the batch loop downstream
    (``result[indices]`` on a 0-d array raises), negative Python ints
    raised an opaque ``OverflowError``, and negative values inside a
    signed ndarray silently wrapped modulo 2**64 — answering a lookup
    for a key the caller never asked about.  A key wider than the
    engine would be answered for bits the scalar path drops, so it is
    refused too.
    """
    array = np.asarray(keys)
    if array.size == 0:
        # An empty batch has no keys to validate — ``[]`` arrives as
        # float64 and must still be accepted.
        return np.empty(0, dtype=np.uint64)
    kind = array.dtype.kind
    if kind == "f" and not isinstance(keys, np.ndarray):
        # numpy quietly promotes a Python sequence holding ints beyond
        # int64 range to float64 (losing exactness past 2**53); re-read
        # the original values exactly through the object path.
        array = np.asarray(keys, dtype=object)
        kind = "O"
    if kind not in "iuO":
        raise ValueError(
            f"keys must be integers, got dtype {array.dtype}"
        )
    if array.ndim != 1:
        array = array.reshape(-1)
    limit = 1 << width
    if kind in "iu":
        if kind == "i" and int(array.min()) < 0:
            raise ValueError(
                f"keys must be non-negative, got {int(array.min())}"
            )
        if width < 8 * array.itemsize and int(array.max()) >= limit:
            raise ValueError(
                f"key {int(array.max())} outside the representable range "
                f"[0, 2**{width})"
            )
        return array if array.dtype == np.uint64 \
            else array.astype(np.uint64)
    # Object dtype: Python ints numpy could not narrow (too large for
    # int64, negative alongside huge, or outright non-integers).
    normalized = np.empty(array.size, dtype=np.uint64)
    for position, value in enumerate(array.tolist()):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"keys must be integers, got {type(value).__name__}"
            )
        if value < 0 or value >= limit:
            raise ValueError(
                f"key {value} outside the representable range "
                f"[0, 2**{width})"
            )
        normalized[position] = value
    return normalized


class BatchLookup:
    """Compiled, read-only batch-lookup view of a built engine.

    One ``FlatSubCellPlan`` per sub-cell, probed longest base first; the
    scalar ``ChiselLPM.lookup`` is the reference every answer matches.
    Each plan remembers the sub-cell it was compiled from and that
    sub-cell's ``words_written`` count, which is what :meth:`patch`
    checks a burst against.
    """

    def __init__(self, engine: ChiselLPM):
        if engine.config.width > 64:
            raise ValueError("batch lookups support key widths up to 64 bits")
        self.width = engine.config.width
        self._plans: List[FlatSubCellPlan] = [
            FlatSubCellPlan.compile(subcell, self.width)
            for subcell in engine.subcells
        ]  # engine.subcells is already longest-base-first
        self._current_for(engine)

    def _current_for(self, engine: ChiselLPM) -> None:
        """Note the engine, its sub-cells and their counts the plans hold."""
        self.engine = engine
        self._cells = list(engine.subcells)
        self._words = [subcell.words_written for subcell in self._cells]

    def bind(self, engine: ChiselLPM) -> None:
        """Make this the image that tracks ``engine``, current as it stands.

        Every sub-cell gets an empty ``WriteLog``, so from here on its
        writes are named for :meth:`patch`.  A router binds the image it
        serves: a fresh compile, or a cold start's checkpoint image and
        the engine unpickled beside it (cut at the same instant).  An
        engine no image tracks keeps no log; its writes are only counted.
        """
        if len(engine.subcells) != len(self._plans):
            raise ValueError(
                f"{len(self._plans)} plans for {len(engine.subcells)} "
                f"sub-cells")
        self._current_for(engine)
        for subcell in self._cells:
            subcell.log = WriteLog()

    @property
    def stale(self) -> bool:
        """True once the engine has been updated past what the plans hold."""
        if self.engine is None:
            return False
        return self.engine.words_written() != sum(self._words)

    @property
    def nbytes(self) -> int:
        """Bytes of every array the plans hold: the compiled image's size."""
        return sum(plan.nbytes for plan in self._plans)

    def patch(self, tracker: Optional["WordTracker"] = None
              ) -> List[Tuple[int, str]]:
        """Apply every sub-cell's logged writes in place; drain the logs.

        A sub-cell whose log asks for a replan, that was replaced (a
        capacity rebuild, ``grow``), or whose ``words_written`` moved by
        more than its log accounts for (a write site that skipped the
        log, ``unlogged``) is recompiled alone, at its position in the
        plan list.  Returns ``(position, reason)`` for each such
        replan; afterwards the plans equal a fresh compile and
        ``stale`` is False.  A ``tracker`` is told every word patched
        and every replan.
        """
        replans: List[Tuple[int, str]] = []
        words, cells, plans = self._words, self._cells, self._plans
        for position, subcell in enumerate(self.engine.subcells):
            log = subcell.log
            if log is None:
                # A sub-cell no image tracked yet (a capacity rebuild's
                # replacement): its writes so far have no names.
                log = subcell.log = WriteLog()
            written = subcell.words_written
            if (written == words[position] and log.replan is None
                    and subcell is cells[position]):
                continue  # nothing written since the last patch
            if subcell is not cells[position]:
                reason: Optional[str] = "grow"
            elif words[position] + log.words != written:
                reason = "unlogged"
            elif log.replan is not None:
                reason = log.replan
            else:
                if tracker is not None:
                    tracker.patched(position, log, plans[position], subcell)
                plans[position].patch(subcell, log)
                reason = None
            if reason is not None:
                plans[position] = FlatSubCellPlan.compile(subcell, self.width)
                cells[position] = subcell
                replans.append((position, reason))
                if tracker is not None:
                    tracker.resync_for(reason)
            words[position] = written
            log.clear()
        return replans

    def write_burst(self, cells: Sequence[BurstCell]) -> None:
        """Store a burst (:meth:`WordTracker.burst`) into these plans."""
        for position, arena_size, writes in cells:
            self._plans[position].write_burst(writes, arena_size)

    def lookup_batch(self, keys) -> np.ndarray:
        """Next hops for a batch of keys (1-D int64); -1 marks misses.

        Input is normalized to 1-D: a scalar key yields a 1-element
        result.  Negative keys and keys of more than ``width`` bits
        raise ``ValueError``.
        """
        return self.lookup_keys(normalize_keys(keys, self.width))

    def lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`lookup_batch` over keys ``normalize_keys`` already passed.

        Sub-cells are probed longest base first, each over the keys no
        longer-base sub-cell answered: the batch carries the positions
        still unresolved and their keys, compacted after every hit.  A
        sub-cell with an empty Result Table fails every address check,
        so it is skipped.
        """
        result = np.full(keys.shape, _MISS, dtype=np.int64)
        pending: Optional[np.ndarray] = None  # None: every position
        batch = keys
        for plan in self._plans:
            if not plan.arena_size:
                continue
            found, hops = plan.probe(batch)
            hit = np.flatnonzero(found)
            if not hit.size:
                continue
            result[hit if pending is None else pending[hit]] = hops[hit]
            if hit.size == batch.size:
                break
            miss = np.flatnonzero(np.logical_not(found, out=found))
            pending = miss if pending is None else pending[miss]
            batch = batch[miss]
        return result

    def lookup_many(self, keys) -> List[Optional[NextHop]]:
        """Convenience: python list with None for misses."""
        return [
            None if value == _MISS else int(value)
            for value in self.lookup_batch(keys)
        ]


class WordTracker:
    """The words patched into an image since a copy of it caught up.

    :meth:`BatchLookup.patch` feeds it the rows, Result-Table ranges
    (fresh allocations included) and Index-Table words each ``WriteLog``
    named; :meth:`burst` reads their current values out of the image,
    all a copy (a shard worker's) needs to catch up.  What a burst
    cannot carry — a replan, a swapped image, or a sub-cell named by
    more ranges and words than it has rows (the ``WriteLog`` overflow
    rule) — sets ``resync`` instead: the copy must take the image.
    """

    __slots__ = ("_named", "resync")

    def __init__(self) -> None:
        #: position -> (bucket rows, arena ranges, Index-Table words)
        self._named: Dict[int, Tuple[Set[int], Set[Tuple[int, int]],
                                     Set[int]]] = {}
        self.resync: Optional[str] = None

    def patched(self, position: int, log: WriteLog, plan: FlatSubCellPlan,
                subcell: ChiselSubCell) -> None:
        """Gather what ``log`` names, before it is patched into ``plan``
        (arena entries past the plan's ``arena_size`` are fresh)."""
        if self.resync is not None:
            return
        rows, ranges, words = self._named.setdefault(
            position, (set(), set(), set()))
        rows |= log.rows
        ranges.update(log.results)
        if len(subcell.result.arena) > plan.arena_size:
            ranges.add((plan.arena_size, len(subcell.result.arena)))
        length = plan.fused.group_length
        words.update(group * length + slot for group, slot in log.slots)
        if len(ranges) + len(words) > subcell.capacity:
            self.resync_for("overflow")

    def resync_for(self, reason: str) -> None:
        """A write no burst can carry: the copy must take the image."""
        if self.resync is None:
            self.resync = reason
        self._named.clear()

    def clear(self) -> None:
        """The copy caught up (a burst shipped, or the image did)."""
        self._named.clear()
        self.resync = None

    def burst(self, image: BatchLookup) -> List[BurstCell]:
        """The gathered words with their current values in ``image``,
        copied out, so the burst outlives the update lock."""
        cells: List[BurstCell] = []
        for position, (rows, ranges, words) in sorted(self._named.items()):
            plan = image._plans[position]
            arena = {address for start, stop in ranges
                     for address in range(start, stop)}
            tables = [(name, getattr(plan, name), rows)
                      for name in RECORD_ARRAYS.values()]
            tables += [("arena", plan.arena, arena),
                       ("table", plan.fused.table, words)]
            writes = []
            for table, array, names in tables:
                if names:
                    index = np.fromiter(names, np.intp, len(names))
                    writes.append((table, index, array[index]))
            cells.append((position, plan.arena_size, writes))
        return cells
