"""One Chisel sub-cell: Index + Filter + Bit-vector + Result tables (Fig. 6).

A sub-cell owns all prefixes whose length falls in one collapse interval
``[base, base + span]``.  Its data path on a lookup is:

1. collapse the key to ``base`` bits and hash it into the Index Table
   (a partitioned Bloomier filter), XOR-decoding a pointer ``p`` local to
   the key's checksum group ``g``, which owns rows ``[g·run, (g+1)·run)``
   (§4.4.2), and adding ``g·run``;
2. read Filter Table[p] and compare against the collapsed key — a mismatch
   (or the dirty bit) means the key is not present (false positive filtered,
   §4.2) — in parallel with reading Bit-vector Table[p];
3. index the 2**span bit-vector with the next ``span`` key bits; if the bit
   is set, add the rank of that bit to the region pointer and read the next
   hop from the (off-chip) Result Table.

The announce/withdraw methods implement §4.4/Fig. 7 on the shadow buckets
and push only the changed words to the hardware tables, counting those
writes so the update benchmarks can report hardware traffic.  Every
count goes through :meth:`ChiselSubCell.wrote`, which also names the
words in the sub-cell's :class:`WriteLog` — the burst a serving image
copies to stay equal to the tables (§4.4's "transfer the modified
portions of the data structure to the hardware engine").
"""

from __future__ import annotations

import random
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from ..bloomier.filter import SetupReport
from ..bloomier.partitioned import InsertOutcome, PartitionedBloomierFilter
from ..integrity import IntegrityError
from ..obs import get_registry
from ..prefix.prefix import Prefix, key_bits
from ..prefix.table import NextHop
from .alloc import BlockAllocator
from .bitvector import Bucket, OriginalKey
from .collapse import SubCellPlan
from .config import ChiselConfig
from .events import CapacityError, UpdateKind
from .sizing import pointer_bits


class WriteLog:
    """The hardware words one sub-cell wrote since its serving image took them.

    ``rows`` are bucket pointers whose Filter/dirty/bit-vector/Region
    words changed, ``results`` Result-Table ranges ``[start, stop)``,
    ``slots`` Index-Table words as ``(group, slot)``.  Writes that cannot
    be named word by word — a group setup that may rehash, a spillover
    TCAM change, a purge, a compaction, a scrub repair, a capacity
    rebuild — set ``replan`` to their reason instead (the first one
    logged) and drop the names: the image then recompiles the whole
    sub-cell.  So does a log that names more words than the sub-cell
    has rows (``overflow``), which bounds what a log can hold.
    ``words`` is the ``words_written`` total the log accounts for.

    A sub-cell keeps a log only while a serving image tracks it
    (``BatchLookup.bind``); otherwise its writes are only counted.
    """

    __slots__ = ("rows", "results", "slots", "replan", "words")

    def __init__(self) -> None:
        self.rows: Set[int] = set()
        self.results: List[Tuple[int, int]] = []
        self.slots: List[Tuple[int, int]] = []
        self.replan: Optional[str] = None
        self.words = 0

    def mark(self, reason: str) -> None:
        """Ask for a whole-sub-cell recompile; the names become moot."""
        self.replan = reason
        self.rows.clear()
        self.results.clear()
        self.slots.clear()

    def clear(self) -> None:
        if self.rows:
            self.rows.clear()
        if self.results:
            self.results.clear()
        if self.slots:
            self.slots.clear()
        self.replan = None
        self.words = 0


class ChiselSubCell:
    """The tables and shadow state for one collapse interval."""

    __slots__ = (
        "base", "span", "width", "capacity", "config", "pointer_bits", "run",
        "index", "filter_table", "dirty_table", "bv_table", "region_ptr",
        "region_ptr_shadow", "region_block", "result", "buckets",
        "_free_pointers", "words_written", "log", "_obs_ranks",
    )

    def __init__(self, plan: SubCellPlan, capacity: int, config: ChiselConfig,
                 rng: random.Random):
        self.base = plan.base
        self.span = plan.span
        self.width = config.width
        self.capacity = max(1, capacity)
        self.config = config
        self.pointer_bits = pointer_bits(self.capacity)
        partitions = min(config.partitions, max(1, self.capacity // 64))
        # A key's checksum group is fixed (§4.4.2), so group g owns the
        # rows [g·run, (g+1)·run) and its Index words tell apart only
        # those: log2(run) bits, not log2(capacity).
        self.run = -(-self.capacity // partitions)
        self.index = PartitionedBloomierFilter(
            capacity=self.capacity,
            key_bits=max(1, self.base),
            value_bits=pointer_bits(self.run),
            num_hashes=config.num_hashes,
            slots_per_key=config.slots_per_key,
            partitions=partitions,
            backend=config.index_backend,
            rng=rng,
            spill_capacity=config.spill_capacity,
            max_rehash=config.max_rehash,
            run=self.run,
        )
        # Hardware tables, all of depth `capacity`, addressed by p(t).
        self.filter_table: List[Optional[int]] = [None] * self.capacity
        self.dirty_table: List[bool] = [False] * self.capacity
        self.bv_table: List[int] = [0] * self.capacity
        self.region_ptr: List[int] = [0] * self.capacity
        # Software shadow of the hardware region-pointer words (§4.4: the
        # Network Processor keeps shadow copies of everything it programs).
        # Written in lockstep with ``region_ptr`` by the legitimate update
        # paths; a scrub pass repairs a corrupted hardware pointer from it.
        self.region_ptr_shadow: List[int] = [0] * self.capacity
        self.region_block: List[int] = [0] * self.capacity  # provisioned sizes
        self.result = BlockAllocator()
        # Shadow software copy (§4.4): collapsed value -> Bucket.
        self.buckets: Dict[int, Bucket] = {}
        # One free list per group, each popping its lowest row first.
        self._free_pointers = [
            list(range(min(self.capacity, start + self.run) - 1, start - 1,
                       -1))
            for start in range(0, partitions * self.run, self.run)
        ]
        self.words_written = 0  # hardware words pushed by incremental updates
        # What those words were, while a serving image tracks this sub-cell.
        self.log: Optional[WriteLog] = None
        self._obs_ranks = get_registry().counter(
            "chisel_bitvector_ranks_total",
            "bit-vector rank computations (Result-Table reads) on lookups",
        )

    # -- construction -----------------------------------------------------------

    @classmethod
    def built(cls, plan: SubCellPlan, capacity: int,
              bucket_map: Dict[int, Dict[OriginalKey, NextHop]],
              config: ChiselConfig, rng: random.Random) -> "ChiselSubCell":
        """A sub-cell holding ``bucket_map``, at ``capacity`` or, should a
        group's run overfill, at the first doubling where every run fits."""
        while True:
            subcell = cls(plan, capacity, config, rng)
            try:
                subcell.build(bucket_map)
            except CapacityError:
                capacity *= 2
                continue
            return subcell

    def build(self, bucket_map: Dict[int, Dict[OriginalKey, NextHop]]) -> SetupReport:
        """Populate all tables from collapsed buckets and run Bloomier setup.

        Raises ``CapacityError`` when the buckets overfill the sub-cell
        or one group's run: build again at a larger capacity.
        """
        if len(bucket_map) > self.capacity:
            raise CapacityError(
                f"sub-cell /{self.base}: {len(bucket_map)} collapsed prefixes "
                f"exceed capacity {self.capacity}"
            )
        # Each group's keys with their group-local pointers.
        groups: List[Dict[int, int]] = [{} for _ in self._free_pointers]
        group_of = self.index.group_of
        for collapsed_value, originals in bucket_map.items():
            group = group_of(collapsed_value)
            pointer = self._allocate(group)
            bucket = Bucket(self.base, self.span, pointer)
            bucket.originals.update(originals)
            self.buckets[collapsed_value] = bucket
            self.filter_table[pointer] = collapsed_value
            # Construction programs the tables wholesale: it is not an
            # update, so nothing is counted or logged.
            self._write_bucket(bucket, fresh=True, update=False)
            groups[group][collapsed_value] = pointer - group * self.run
        return self.index.setup_groups(groups)

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        # The write log belongs to the serving image tracking this
        # sub-cell, not to its tables: a pickle carries none.  The
        # buckets go as flat columns in dict order (purge, scrub and
        # maintenance iterate them, so a restored engine must too):
        # tens of thousands of small objects pickle and unpickle slowly.
        slots = {name: getattr(self, name) for name in self.__slots__
                 if name not in ("log", "buckets")}
        members = list(self.buckets.values())
        originals = list(map(attrgetter("originals"), members))
        keys = list(chain.from_iterable(chain.from_iterable(originals)))
        slots["buckets"] = (
            list(self.buckets),
            list(map(attrgetter("pointer"), members)),
            list(map(attrgetter("dirty"), members)),
            list(map(len, originals)),
            keys[0::2],  # original lengths
            keys[1::2],  # original suffixes
            list(chain.from_iterable(map(dict.values, originals))),
        )
        return None, slots

    def __setstate__(self, state: Tuple[None, Dict[str, object]]) -> None:
        _dict, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        self.log = None
        if "run" in slots:
            self.buckets = self._unpack_buckets(self.buckets)
            return
        # Pickled with global bucket pointers (and a Bucket map, not
        # columns): lay the live buckets out group-local, as a grow does.
        rebuilt = self.built(
            SubCellPlan(self.base, self.span), self.capacity,
            self.export_buckets(), self.config,
            random.Random(self.config.seed ^ (self.capacity << 8)))
        for name in self.__slots__:
            if name != "words_written":
                setattr(self, name, getattr(rebuilt, name))

    def _unpack_buckets(self, columns: Tuple[list, ...]) -> Dict[int, Bucket]:
        """The bucket map from :meth:`__getstate__`'s columns."""
        values, pointers, dirty, counts, lengths, suffixes, hops = columns
        if (not len(values) == len(pointers) == len(dirty) == len(counts)
                or sum(counts) != len(lengths)
                or not len(lengths) == len(suffixes) == len(hops)
                or min(counts, default=0) < 0):
            raise IntegrityError(
                f"sub-cell /{self.base}: bucket columns disagree")
        # Each bucket's dict takes the next ``count`` entries.
        entries = iter(zip(zip(lengths, suffixes), hops))
        dicts = map(dict, map(islice, repeat(entries), counts))
        buckets: Dict[int, Bucket] = {}
        for value, pointer, flag, originals in zip(values, pointers, dirty,
                                                   dicts):
            bucket = Bucket.__new__(Bucket)
            bucket.base = self.base
            bucket.span = self.span
            bucket.pointer = pointer
            bucket.dirty = flag
            bucket.originals = originals
            buckets[value] = bucket
        return buckets

    def wrote(self, words: int, row: Optional[int] = None,
              result: Optional[Tuple[int, int]] = None,
              slot: Optional[Tuple[int, int]] = None,
              replan: Optional[str] = None) -> None:
        """Count ``words`` hardware writes and log which words they were.

        The one place ``words_written`` moves, so no write site can bump
        the count without naming its words (or asking for a replan).
        """
        self.words_written += words
        log = self.log
        if log is None:
            return  # no serving image tracks this sub-cell
        log.words += words
        if log.replan is not None:
            return  # a recompile is owed already
        if replan is not None:
            log.mark(replan)
            return
        if row is not None:
            log.rows.add(row)
        if result is not None:
            log.results.append(result)
        if slot is not None:
            log.slots.append(slot)
        if len(log.results) + len(log.slots) > self.capacity:
            log.mark("overflow")

    def _allocate(self, group: int) -> int:
        """A free row in ``group``'s run, or ``CapacityError`` when that
        run is full."""
        free = self._free_pointers[group]
        if not free:
            raise CapacityError(
                f"sub-cell /{self.base}: group {group}'s {self.run} rows "
                f"are full")
        return free.pop()

    # -- hardware table maintenance ------------------------------------------------

    def _write_bucket(self, bucket: Bucket, fresh: bool = False,
                      update: bool = True) -> None:
        """Recompute a bucket's bit-vector and region; an ``update``
        counts and logs the words."""
        pointer = bucket.pointer
        vector, region = bucket.paint()
        needed = max(len(region), self.config.region_slack)
        written = 0
        if fresh:
            self.region_ptr[pointer] = self.result.allocate(needed)
            self.region_ptr_shadow[pointer] = self.region_ptr[pointer]
            self.region_block[pointer] = self.result.block_size(needed)
        elif len(region) > self.region_block[pointer]:
            # Grown past the provisioned block: allocate anew, free the old
            # (§4.4.2 "allocate a new block of appropriate size ... and free
            # the previous one").  Allocator state is tracked through the
            # *shadow* pointer: a corrupted hardware word must not leak or
            # double-free arena blocks.
            self.result.free(
                self.region_ptr_shadow[pointer], self.region_block[pointer]
            )
            self.region_ptr[pointer] = self.result.allocate(needed)
            self.region_ptr_shadow[pointer] = self.region_ptr[pointer]
            self.region_block[pointer] = self.result.block_size(needed)
            written += 1  # new region pointer word
        if self.bv_table[pointer] != vector:
            self.bv_table[pointer] = vector
            written += 1
        start = self.region_ptr_shadow[pointer]
        self.result.write_block(start, region)
        if update:
            self.wrote(written + len(region), pointer,
                       (start, start + len(region)))

    def _retire_bucket(self, collapsed_value: int, bucket: Bucket) -> None:
        pointer = bucket.pointer
        self.result.free(
            self.region_ptr_shadow[pointer], self.region_block[pointer]
        )
        self.filter_table[pointer] = None
        self.dirty_table[pointer] = False
        self.bv_table[pointer] = 0
        self.region_block[pointer] = 0
        self._free_pointers[pointer // self.run].append(pointer)
        del self.buckets[collapsed_value]
        # Retirement invalidates the Filter-Table word and clears the
        # bit-vector word: both are hardware writes.  Counting them keeps
        # ``words_written`` — and therefore ``BatchLookup.stale`` — moving
        # for maintenance mutations, not just announce/withdraw.
        self.wrote(2, row=pointer)

    # -- lookup (the Fig. 6 datapath) --------------------------------------------------

    def collapse_key(self, key: int) -> int:
        return key_bits(key, self.width, 0, self.base)

    def lookup(self, key: int) -> Optional[NextHop]:
        """Longest-match next hop within this sub-cell, or None."""
        collapsed = self.collapse_key(key)
        pointer = self.index.lookup(collapsed)
        if pointer >= self.capacity:
            return None  # garbage pointer from a non-member: filtered
        if self.filter_table[pointer] != collapsed or self.dirty_table[pointer]:
            return None  # false positive or withdrawn bucket
        expansion = key_bits(key, self.width, self.base, self.span)
        vector = self.bv_table[pointer]
        if not (vector >> expansion) & 1:
            return None
        self._obs_ranks.inc()
        rank = bin(vector & ((1 << (expansion + 1)) - 1)).count("1")
        return self.result.read(self.region_ptr[pointer] + rank - 1)

    # -- updates (§4.4, Fig. 7) ------------------------------------------------------

    def announce(self, prefix: Prefix, next_hop: NextHop) -> UpdateKind:
        """Add/refresh a route; returns how the update was applied."""
        collapsed_value = prefix.collapse(self.base).value
        suffix = prefix.suffix_bits(self.base)
        bucket = self.buckets.get(collapsed_value)
        if bucket is not None:
            if bucket.dirty:
                kind = UpdateKind.ROUTE_FLAP
                bucket.dirty = False
                self.dirty_table[bucket.pointer] = False
                self.wrote(1, row=bucket.pointer)
            elif bucket.has(prefix.length, suffix):
                kind = UpdateKind.NEXT_HOP
            else:
                kind = UpdateKind.ADD_PC
            bucket.add(prefix.length, suffix, next_hop)
            self._write_bucket(bucket)
            return kind
        # New collapsed prefix: needs a table entry and an Index Table add.
        pointer = self._allocate(self.index.group_of(collapsed_value))
        bucket = Bucket(self.base, self.span, pointer)
        bucket.add(prefix.length, suffix, next_hop)
        self.buckets[collapsed_value] = bucket
        self.filter_table[pointer] = collapsed_value
        self.wrote(1, row=pointer)
        self._write_bucket(bucket, fresh=True)
        try:
            inserted = self.index.insert(collapsed_value, pointer)
        except Exception:
            # Index Table insertion failed (peel non-convergence, spillover
            # overflow).  Without the key encoded, the bucket written above
            # is unreachable by the datapath but visible to the shadow —
            # a divergence every later retry would silently inherit.  Roll
            # the bucket back so the announce fails atomically.
            self._retire_bucket(collapsed_value, bucket)
            self.wrote(0, replan="resetup")
            raise
        if inserted.outcome is InsertOutcome.REBUILD:
            # The group setup may have rehashed: its words have no names.
            self.wrote(0, replan="resetup")
            return UpdateKind.RESETUP
        # Either one Index Table word (singleton) or one TCAM word
        # (spilled-key refresh or move) — O(1) hardware traffic either
        # way, but a TCAM word has no name in the compiled image.
        if inserted.word is None:
            self.wrote(1, replan="spillover")
        else:
            self.wrote(1, slot=inserted.word)
        return UpdateKind.SINGLETON

    def withdraw(self, prefix: Prefix) -> Optional[UpdateKind]:
        """Remove a route; None if it was not present (no-op)."""
        collapsed_value = prefix.collapse(self.base).value
        suffix = prefix.suffix_bits(self.base)
        bucket = self.buckets.get(collapsed_value)
        if bucket is None or bucket.dirty or not bucket.has(prefix.length, suffix):
            return None
        bucket.remove(prefix.length, suffix)
        if bucket.empty:
            # Keep the key encoded but mark it dirty so a route-flap can
            # restore it without touching the Index Table (§4.4.1).
            bucket.dirty = True
            self.dirty_table[bucket.pointer] = True
            self.wrote(1, row=bucket.pointer)
        else:
            self._write_bucket(bucket)
        return UpdateKind.WITHDRAW

    def purge_dirty(self) -> int:
        """Physically remove all dirty buckets (the periodic re-setup purge)."""
        dirty = [
            (value, bucket) for value, bucket in self.buckets.items() if bucket.dirty
        ]
        for collapsed_value, bucket in dirty:
            self._retire_bucket(collapsed_value, bucket)
        if dirty:
            # Each group rebuild rewrites that group's whole Index-Table
            # range; spill-only deletions touch just the TCAM (already
            # covered by the retirement writes above).
            rebuilds = self.index.delete_many(
                value for value, _bucket in dirty
            )
            self.wrote(rebuilds, replan="purge")
        return len(dirty)

    def compact_result_table(self) -> int:
        """Defragment this sub-cell's Result Table regions.

        Frees the holes left by region reallocation and purges; returns
        the number of arena entries reclaimed.  Region pointers in the
        Bit-vector Table are rewritten (hardware: a burst of pointer-word
        writes during a quiet period).
        """
        before = len(self.result.arena)
        live_blocks = {
            self.region_ptr_shadow[bucket.pointer]:
                self.region_block[bucket.pointer]
            for bucket in self.buckets.values()
        }
        relocation = self.result.compact(live_blocks)
        moved = 0
        for bucket in self.buckets.values():
            pointer = bucket.pointer
            old = self.region_ptr_shadow[pointer]
            if relocation.get(old, old) != old:
                self.region_ptr[pointer] = relocation[old]
                self.region_ptr_shadow[pointer] = relocation[old]
                moved += 1
        if moved or len(self.result.arena) != before:
            # The arena itself was rebuilt: its words have no names.
            self.wrote(moved, replan="compact")
        return before - len(self.result.arena)

    def get_route(self, prefix: Prefix) -> Optional[NextHop]:
        """The stored next hop for an exact original prefix (shadow read)."""
        bucket = self.buckets.get(prefix.collapse(self.base).value)
        if bucket is None or bucket.dirty:
            return None
        return bucket.originals.get(
            (prefix.length, prefix.suffix_bits(self.base))
        )

    def dirty_count(self) -> int:
        return sum(1 for bucket in self.buckets.values() if bucket.dirty)

    def export_buckets(self) -> Dict[int, Dict[OriginalKey, NextHop]]:
        """Live (non-dirty) bucket contents, for rebuilding at a new size."""
        return {
            value: dict(bucket.originals)
            for value, bucket in self.buckets.items()
            if not bucket.dirty
        }

    # -- introspection -----------------------------------------------------------------

    def __len__(self) -> int:
        """Live (non-dirty) collapsed prefixes."""
        return sum(1 for bucket in self.buckets.values() if not bucket.dirty)

    def original_route_count(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())

    def table_depths(self) -> Dict[str, int]:
        return {
            "index_slots": self.index.total_slots,
            "filter_entries": self.capacity,
            "bitvector_entries": self.capacity,
            "result_entries": len(self.result.arena),
        }

    def storage_bits(self) -> Dict[str, int]:
        """As-built on-chip storage per component (Result Table is off-chip)."""
        depths = self.table_depths()
        filter_width = max(1, self.base) + 1  # collapsed key + dirty bit
        bv_width = (1 << self.span) + self.pointer_bits
        return {
            "index": self.index.storage_bits(),
            "filter": depths["filter_entries"] * filter_width,
            "bitvector": depths["bitvector_entries"] * bv_width,
        }
