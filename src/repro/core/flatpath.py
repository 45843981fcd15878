"""Cache-aware flat datapath: geometry-sized bucket arrays, one-pass decode.

``BatchLookup`` compiles every sub-cell into one :class:`FlatSubCellPlan`
that walks the Fig. 6 datapath over whole key batches, with each table
sized the way "Cache-aware data structures for packet forwarding tables"
(PAPERS.md) recommends: every structure at its own width, so more of it
stays cache-resident.

* **Narrow arrays** — each table's dtype follows from the sub-cell's
  geometry, never from its contents: Index-Table words from the groups'
  ``value_bits``, Filter values from ``base``, bit-vectors from
  ``2**span``, Result-Table words from ``next_hop_bits``, Region
  pointers int32.  Contents change with every update; geometry only
  with a re-plan, so a patched plan keeps the dtypes of a fresh compile.
  A word that does not fit raises ``ValueError``; nothing wraps.
* **Bucket arrays with a sentinel** — Filter, bit-vector and Region
  pointer each hold ``capacity + 1`` entries.  The dirty and empty
  states fold into the bit-vector (such a bucket stores 0, which fails
  the bit test), and entry ``capacity`` is an all-zero bucket that never
  matches, so one ``np.minimum`` sends every out-of-range pointer there.
* **One-pass decode** — every partition group's hash byte-tables are
  concatenated into ``(nb, d·256)`` arrays addressed by
  ``(group << 8) | byte`` and the group Index-Table words into one flat
  array, so partition routing is part of the gather index.  The words
  hold group-local pointers (§4.4.2): the decode adds ``group · run``.
* **Allocation-free pipeline** — every intermediate lives in a
  per-thread scratch pool (grown geometrically, reused across batches).

The plan is compiled straight from the sub-cell's own tables
(:meth:`FlatSubCellPlan.compile`) and must be bit-exact with the scalar
``ChiselLPM.lookup`` (``tests/test_flat_differential.py`` is the gate).
:meth:`FlatSubCellPlan.patch` keeps a compiled plan equal to a fresh
compile by copying the words one update wrote (the sub-cell's
``WriteLog``): bucket words, Result-Table ranges and Index-Table words.
The arena carries geometric slack past ``arena_size`` so that Result
Table growth lands in place too.  :meth:`FlatSubCellPlan.write_burst`
stores the same words into a copy of the plan (a shard worker's).
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_LITTLE_ENDIAN = sys.byteorder == "little"

#: The per-bucket arrays of a plan, by the hardware table each holds.
#: The fault injector and the codec address them through this map.
RECORD_ARRAYS: Dict[str, str] = {
    "filter": "filters",
    "bitvector": "bitvectors",
    "regionptr": "regionptrs",
}

_UNSIGNED = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32,
                                        np.uint64))
_REGION = np.dtype(np.int32)


def word_dtype(bits: int) -> np.dtype:
    """The narrowest unsigned dtype that holds ``bits``-bit words."""
    for dtype in _UNSIGNED:
        if bits <= 8 * dtype.itemsize:
            return dtype
    raise ValueError(f"{bits}-bit words do not fit in 64 bits")


def _narrow(values: Sequence[int], dtype: np.dtype, what: str,
            length: Optional[int] = None) -> np.ndarray:
    """``values`` as a ``dtype`` array of ``length`` (zero-padded).

    A word that does not fit raises ``ValueError`` naming the table.
    """
    array = np.zeros(len(values) if length is None else length, dtype=dtype)
    try:
        array[:len(values)] = values
    except OverflowError as error:
        raise ValueError(f"{what}: {error}") from None
    return array


def _store(array: np.ndarray, index, value, what: str) -> None:
    """``array[index] = value``, refusing a word that does not fit."""
    try:
        array[index] = value
    except OverflowError as error:
        raise ValueError(f"{what} word {index}: {error}") from None


class _ScratchPool:
    """Named reusable buffers for one thread's batch pipeline.

    Buffers grow geometrically and are handed out as prefix slices, so a
    steady stream of equal-size batches allocates nothing after warmup.
    A buffer is keyed by name and dtype, since plans of one batch hold
    differently sized words.  The pool is per-thread (see
    :func:`scratch`): two threads sharing a snapshot never share an
    intermediate.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, object], np.ndarray] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        key = (name, dtype)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size:
            capacity = max(size, 1024)
            if buffer is not None:
                capacity = max(capacity, 2 * buffer.size)
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:size]


_LOCAL = threading.local()


def scratch() -> _ScratchPool:
    """This thread's scratch pool."""
    pool = getattr(_LOCAL, "pool", None)
    if pool is None:
        pool = _ScratchPool()
        _LOCAL.pool = pool
    return pool


def _bucket_words(subcell, pointer: int) -> Tuple[int, int]:
    """(Filter, bit-vector) words of one bucket, as :meth:`compile` stores
    them: an empty or dirty bucket stores a zero bit-vector, so no
    expansion bit is set and the bit test misses exactly as the scalar
    path's present/dirty check does."""
    value = subcell.filter_table[pointer]
    if value is None:
        return 0, 0
    if subcell.dirty_table[pointer]:
        return value, 0
    return value, subcell.bv_table[pointer]


class _FusedIndex:
    """All partition groups of one sub-cell as combined flat arrays.

    Every group of a sub-cell is built by one backend from one capacity,
    so all ``d`` groups share one geometry: the group Index-Table words
    live concatenated in ``table`` (dtype from ``value_bits``), group
    ``g``'s at ``g * group_length``, and one ``segment`` (and, for fuse,
    one ``start_range``) serves them all.

    ``hash_tables`` holds the tabulation byte-tables once, packed or
    not.  Tabulation entries are drawn with ``out_bits`` just wide
    enough for their segment, and an XOR fold never widens a bit field,
    so the ``num_hashes`` byte tables (plus, for fuse, the start hash's)
    usually fit as disjoint bit fields of one ``(num_bytes, d·256)``
    table, in the narrowest unsigned dtype that holds them all: one
    gather per key byte decodes every hash, and each unpacks with a
    shift and a mask.  A family whose fields exceed 64 bits keeps one
    ``(num_hashes, num_bytes, d·256)`` uint64 table per hash.
    ``widths`` are the fields' bit widths (from the table maxima, which
    change only when a group re-setup draws new hashes — a re-plan);
    ``condsub_ok`` — folded values < 2 * segment for every hash — lets
    the per-hash modulus run as one conditional subtract.
    """

    __slots__ = (
        "kind", "num_hashes", "num_bytes", "num_groups", "table",
        "group_length", "segment", "hash_tables", "widths", "packed",
        "shifts", "masks", "start_tables", "start_range", "start_shift",
        "condsub_ok",
    )

    def __init__(self, kind: str, num_hashes: int, num_bytes: int,
                 num_groups: int, table: np.ndarray, segment: int,
                 hash_tables: np.ndarray, widths: Sequence[int],
                 start_tables: Optional[np.ndarray] = None,
                 start_range: Optional[int] = None) -> None:
        self.kind = kind
        self.num_hashes = num_hashes
        self.num_bytes = num_bytes
        self.num_groups = num_groups
        self.table = table
        self.group_length = len(table) // num_groups
        self.segment = segment
        self.hash_tables = hash_tables
        self.widths = tuple(widths)
        self.packed = hash_tables.ndim == 2
        # Fields unpack at the hash tables' own dtype.
        lane = hash_tables.dtype.type
        shifts, position = [], 0
        for width in self.widths:
            shifts.append(lane(position))
            position += width
        self.shifts = tuple(shifts)
        self.masks = tuple(lane((1 << width) - 1) for width in self.widths)
        # The fuse start hash rides in the packed table unless it has
        # its own byte tables.
        self.start_tables = start_tables
        self.start_range = start_range
        self.start_shift = (lane(position) if self.packed
                            and kind == "fuse" and start_tables is None
                            else None)
        self.condsub_ok = all(1 << (width - 1) <= segment
                              for width in self.widths)

    @classmethod
    def from_groups(cls, groups: Sequence, pack: bool = True) -> "_FusedIndex":
        """Fuse one sub-cell's partition groups straight from the backends.

        Every group of a ``PartitionedBloomierFilter`` is built by one
        backend with one ``key_bits``, k and capacity, so the first
        group's geometry is every group's and their tables stack
        without padding.  ``pack=False`` keeps one table per hash even
        when the fields would pack (the fallback's differential test).
        """
        first = groups[0]
        num_groups = len(groups)
        num_bytes = (first.key_bits + 7) // 8
        if first.kind == "fuse":
            kind, segment = "fuse", first.segment_length
            hash_sets = [group.offset_hashes for group in groups]
        else:
            kind, segment = "bloomier", first.hash_group.segment_size
            hash_sets = [group.hash_group.hashes for group in groups]
        # (group, hash, byte, 256) -> (hash, byte, group · 256): group g's
        # byte table lands at lane g << 8 of its (hash, byte) row.
        per_group = np.array(
            [[hash_fn.byte_tables[:num_bytes] for hash_fn in hashes]
             for hashes in hash_sets], dtype=np.uint64)
        num_hashes = per_group.shape[1]
        hash_tables = np.ascontiguousarray(
            per_group.transpose(1, 2, 0, 3)).reshape(
                num_hashes, num_bytes, num_groups * 256)
        value_dtype = word_dtype(first.value_bits)
        table = np.concatenate([_narrow(group.table, value_dtype,
                                        "Index Table") for group in groups])
        widths = [max(1, int(hash_tables[h].max()).bit_length())
                  for h in range(num_hashes)]
        start_tables: Optional[np.ndarray] = None
        start_range: Optional[int] = None
        if kind == "fuse":
            start_tables = np.ascontiguousarray(np.array(
                [group.start_hash.byte_tables[:num_bytes] for group in groups],
                dtype=np.uint64).transpose(1, 0, 2)).reshape(
                    num_bytes, num_groups * 256)
            start_range = first.start_range
        if pack and sum(widths) <= 64:
            packed = np.zeros_like(hash_tables[0])
            position = 0
            for h, width in enumerate(widths):
                packed |= hash_tables[h] << np.uint64(position)
                position += width
            if start_tables is not None:
                start_width = max(1, int(start_tables.max()).bit_length())
                if position + start_width <= 64:
                    packed |= start_tables << np.uint64(position)
                    start_tables = None
                    position += start_width
            # The per-hash modulus runs at this dtype, so the segment
            # must fit it too.
            hash_tables = packed.astype(
                word_dtype(max(position, segment.bit_length())))
        return cls(kind, num_hashes, num_bytes, num_groups, table, segment,
                   hash_tables, widths, start_tables, start_range)


class FlatSubCellPlan:
    """One sub-cell's datapath over narrow bucket arrays + group tables.

    Construct with :meth:`compile` from a built ``SubCell``, or rebuild
    field-by-field via ``__new__`` (the shard codec's attach path).
    """

    __slots__ = (
        "base", "span", "width", "capacity", "partitions", "run", "checksum",
        "fused", "filters", "bitvectors", "regionptrs", "arena",
        "arena_size", "spill_keys", "spill_values",
    )

    @classmethod
    def compile(cls, subcell, width: int) -> "FlatSubCellPlan":
        """Compile one built ``SubCell`` (of a ``width``-bit engine)."""
        plan = cls.__new__(cls)
        plan.base = subcell.base
        plan.span = subcell.span
        plan.width = width
        plan.capacity = subcell.capacity
        index = subcell.index
        plan.partitions = index.partitions
        plan.run = subcell.run
        checksum = index.checksum_hash
        key_bytes = (max(1, subcell.base) + 7) // 8
        plan.checksum = np.array(checksum.byte_tables[:key_bytes],
                                 dtype=word_dtype(checksum.out_bits))
        plan.fused = _FusedIndex.from_groups(index.groups)
        # Entry ``capacity`` of each bucket array is the all-zero
        # sentinel bucket; the rest follow _bucket_words.
        buckets = subcell.capacity + 1
        filter_table = subcell.filter_table
        plan.filters = _narrow(
            [0 if value is None else value for value in filter_table],
            word_dtype(max(1, subcell.base)), "Filter Table", buckets)
        plan.bitvectors = _narrow(
            [0 if value is None or dirty else vector for value, dirty, vector
             in zip(filter_table, subcell.dirty_table, subcell.bv_table)],
            word_dtype(1 << subcell.span), "Bit-vector Table", buckets)
        plan.regionptrs = _narrow(subcell.region_ptr, _REGION,
                                  "Region pointer", buckets)
        arena = subcell.result.arena
        plan.arena_size = len(arena)
        # Keep one placeholder entry so gathers stay legal on an empty
        # arena; ``arena_size`` (not the array length) bounds validity.
        plan.arena = _narrow(arena, word_dtype(subcell.config.next_hop_bits),
                             "Result Table", max(len(arena), 1))
        # The TCAM holds group-local pointers, as the Index words do;
        # the plan holds them with their group's first row added.
        spill_items = sorted(index.spillover)
        plan.spill_keys = _narrow([key for key, _value in spill_items],
                                  plan.filters.dtype, "spillover key")
        plan.spill_values = _narrow(
            [value + index.group_of(key) * plan.run
             for key, value in spill_items],
            np.dtype(np.intp), "spillover value")
        return plan

    @property
    def nbytes(self) -> int:
        """Bytes of every array this plan holds (arena slack included)."""
        fused = self.fused
        arrays = (self.checksum, fused.hash_tables, fused.start_tables,
                  fused.table, self.filters, self.bitvectors,
                  self.regionptrs, self.arena, self.spill_keys,
                  self.spill_values)
        return sum(array.nbytes for array in arrays if array is not None)

    def patch(self, subcell, log, front: np.ndarray, bit: int) -> None:
        """Copy the words ``log`` names from ``subcell`` into this plan.

        Bucket words are built exactly as :meth:`compile` builds them,
        so a patched plan equals a fresh compile (with the arena compared
        up to ``arena_size``).  The caller guarantees the log holds no
        ``replan``: those writes have no word names.  Each row left live
        sets ``bit`` on the ``front`` table words its Filter value covers
        (``BatchLookup``'s front table).
        """
        # A burst is a handful of words: scalar stores beat building a
        # numpy array per row or range.
        shift = self.base - (len(front).bit_length() - 1)
        for pointer in log.rows:
            filter_word, vector = _bucket_words(subcell, pointer)
            _store(self.filters, pointer, filter_word, "Filter Table")
            _store(self.bitvectors, pointer, vector, "Bit-vector Table")
            _store(self.regionptrs, pointer, subcell.region_ptr[pointer],
                   "Region pointer")
            if not vector:
                continue
            # Test before setting: a live bucket's word is almost always
            # marked already.  A base below the front's key bits covers an
            # aligned run of words that is always marked as a whole, so
            # its first word stands for the run.
            word = filter_word >> shift if shift >= 0 else (
                filter_word << -shift)
            if not front.item(word) & bit:
                if shift >= 0:
                    front[word] = front.item(word) | bit
                else:
                    front[word:word + (1 << -shift)] |= bit
        if log.results:
            self._patch_arena(subcell.result.arena, log.results)
        if log.slots:
            # Groups sit concatenated in the fused table.
            table = self.fused.table
            groups = subcell.index.groups
            length = self.fused.group_length
            for group, slot in log.slots:
                _store(table, group * length + slot, groups[group].table[slot],
                       "Index Table")

    def _reserve_arena(self, size: int) -> None:
        """Grow the arena array geometrically to hold ``size`` entries.

        The new array is installed before ``arena_size`` moves, so a
        concurrent reader never indexes past the array it holds.
        """
        if size > len(self.arena):
            grown = np.zeros(max(size, 2 * len(self.arena)),
                             dtype=self.arena.dtype)
            grown[:self.arena_size] = self.arena[:self.arena_size]
            self.arena = grown

    def _patch_arena(self, arena: List[int], ranges) -> None:
        """Copy Result-Table ranges, growing the arena as needed."""
        size = len(arena)
        self._reserve_arena(size)
        served = self.arena
        if size > self.arena_size:
            # Fresh allocations: copied whole, written or not.
            _store(served, slice(self.arena_size, size),
                   arena[self.arena_size:size], "Result Table")
        for start, stop in ranges:
            for address in range(start, stop):
                _store(served, address, arena[address], "Result Table")
        self.arena_size = size

    def write_burst(self, writes: Sequence[Tuple[str, np.ndarray, np.ndarray]],
                    arena_size: int) -> None:
        """Store a burst's ``(table, indices, values)`` words (read out
        of a patched plan by ``WordTracker.burst``) into this copy.

        A table that is still a read-only view — a shared segment's — is
        copied into private memory the first time a burst writes it, so
        the segment stays immutable.
        """
        self._reserve_arena(arena_size)
        for table, indices, values in writes:
            owner = self.fused if table == "table" else self
            array = getattr(owner, table)
            if not array.flags.writeable:
                array = array.copy()
                setattr(owner, table, array)
            _store(array, indices, values, table)
        self.arena_size = arena_size

    def _collapse(self, keys: np.ndarray, pool: _ScratchPool) -> np.ndarray:
        """The keys' top ``base`` bits, in the Filter Table's dtype."""
        collapsed = pool.get("collapsed", keys.size, self.filters.dtype)
        if self.base == 0:
            collapsed[:] = 0
        elif self.base < self.width:
            np.right_shift(
                keys, np.uint64(self.width - self.base), out=collapsed)
        else:
            np.copyto(collapsed, keys, casting="unsafe")
        return collapsed

    def _decode(self, collapsed: np.ndarray,
                pool: _ScratchPool) -> np.ndarray:
        """Checksum-route and XOR-decode pointers for the whole batch.

        Returns the pointers as an intp array: each key's XOR of
        group-local words plus its group's first row, ``group · run``.
        Every accumulator starts from its first gather.  ``mode="clip"``
        only spares numpy its bounds-checking copy: each index is in
        range by construction.
        """
        size = collapsed.size
        fused = self.fused
        checksum_bytes = self.checksum.shape[0]
        num_bytes = max(checksum_bytes, fused.num_bytes)
        byte_indices: List[np.ndarray] = []
        if _LITTLE_ENDIAN:
            key_bytes = collapsed.view(np.uint8)
            stride = collapsed.itemsize
        for position in range(num_bytes):
            index = pool.get(f"byte{position}", size, np.intp)
            if _LITTLE_ENDIAN:
                # Byte p of key i sits at key_bytes[stride * i + p]: one
                # strided widening copy instead of shift/mask/cast.
                np.copyto(index, key_bytes[position::stride],
                          casting="unsafe")
            else:
                shifted = pool.get("shifted", size, collapsed.dtype)
                np.right_shift(collapsed, 8 * position, out=shifted)
                np.bitwise_and(shifted, 0xFF, out=shifted)
                np.copyto(index, shifted, casting="unsafe")
            byte_indices.append(index)
        routed = pool.get("routed", size, self.checksum.dtype)
        self._fold(self.checksum, byte_indices, routed,
                   pool.get("checkword", size, self.checksum.dtype))
        # Partition routing folds into the gather index: group << 8 | byte.
        group_of = pool.get("group_of", size, np.intp)
        partitions = self.partitions
        if partitions & (partitions - 1) == 0:
            np.bitwise_and(routed, partitions - 1, out=group_of,
                           casting="unsafe")
        else:
            np.remainder(routed, partitions, out=group_of, casting="unsafe")
        offsets = pool.get("offsets", size, np.intp)
        if fused.num_groups > 1:
            np.left_shift(group_of, 8, out=offsets)
            for position in range(fused.num_bytes):
                np.bitwise_or(byte_indices[position], offsets,
                              out=byte_indices[position])
        # One geometry for every group: offsets are an affine function
        # of the group and the segment size is one constant.  The
        # address arithmetic below runs on uint64 views of the intp
        # buffers (every value is far below 2**63).
        np.multiply(group_of, fused.group_length, out=offsets)
        offsets_u = offsets.view(np.uint64)
        # Each hash is unpacked and reduced at the hash tables' dtype
        # (a packed table's is its narrowest), and widens only where it
        # joins the uint64 slot offsets.
        lane = fused.hash_tables.dtype
        if fused.packed:
            # One gather per key byte decodes every hash at once: the
            # fields XOR-fold independently (no carries).
            fields = pool.get("fields", size, lane)
            self._fold(fused.hash_tables, byte_indices, fields,
                       pool.get("fieldword", size, lane))
        if fused.kind == "fuse":
            start = pool.get("start", size, np.uint64)
            if fused.start_shift is not None:
                # The start hash is the packed word's top field.
                np.right_shift(fields, fused.start_shift, out=start)
            else:
                self._fold(fused.start_tables, byte_indices, start,
                           pool.get("word64", size, np.uint64))
            # The start hash is deliberately wider than its range (the
            # builder pads by 4 bits), so it keeps the true modulus.
            np.remainder(start, np.uint64(fused.start_range), out=start)
            # slot = (start + i) * segment_length + offset_hash: hash i
            # reads the table from i * segment_length on, so the start
            # term joins the group offset once.  The product stays far
            # below 2**64 (tables are megabytes, not exabytes).
            np.multiply(start, np.uint64(fused.segment), out=start)
            np.add(offsets_u, start, out=offsets_u)
        accumulator = pool.get("accumulator", size, lane)
        spare = pool.get("spare", size, lane)
        segment = lane.type(fused.segment)
        pointers = pool.get("pointers", size, fused.table.dtype)
        word = pool.get("word", size, fused.table.dtype)
        slot = pool.get("slot", size, np.intp)
        decoded = pool.get("decoded", size, np.intp)
        last = fused.num_hashes - 1
        for hash_index in range(fused.num_hashes):
            if fused.packed:
                np.right_shift(fields, fused.shifts[hash_index],
                               out=accumulator)
                np.bitwise_and(accumulator, fused.masks[hash_index],
                               out=accumulator)
            else:
                self._fold(fused.hash_tables[hash_index], byte_indices,
                           accumulator, spare)
            if fused.kind == "bloomier":
                if fused.condsub_ok:
                    # Folded hashes are < 2 * segment (out_bits sizing),
                    # so the modulus is one conditional subtract: the
                    # wrapped difference only wins the minimum when the
                    # value was >= segment.
                    np.subtract(accumulator, segment, out=spare)
                    np.minimum(accumulator, spare, out=accumulator)
                else:
                    np.remainder(accumulator, segment, out=accumulator)
            np.add(accumulator, offsets_u, out=slot.view(np.uint64))
            # Hash i's segment starts i * segment words into its group.
            fused.table[hash_index * fused.segment:].take(
                slot, out=pointers if hash_index == 0 else word, mode="clip")
            if hash_index:
                # The last fold widens straight into the intp result.
                np.bitwise_xor(pointers, word,
                               out=decoded if hash_index == last else pointers)
        if last == 0:
            np.copyto(decoded, pointers)
        if fused.num_groups > 1:
            # Group g's run of rows starts at g · run.
            np.multiply(group_of, self.run, out=group_of)
            np.add(decoded, group_of, out=decoded)
        return decoded

    @staticmethod
    def _fold(tables: np.ndarray, byte_indices: List[np.ndarray],
              out: np.ndarray, word: np.ndarray) -> None:
        """XOR-fold one hash's per-byte gathers into ``out``."""
        for position in range(tables.shape[0]):
            tables[position].take(byte_indices[position],
                                  out=out if position == 0 else word,
                                  mode="clip")
            if position:
                np.bitwise_xor(out, word, out=out)

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(found, hops)`` for a key batch of this plan's width.

        ``hops[i]`` is key ``i``'s next hop where ``found[i]``, and
        meaningless elsewhere.  Both arrays are scratch-backed, valid
        until this thread's next ``probe`` call — callers
        (``BatchLookup.lookup_keys``) consume them before probing the
        next sub-cell.
        """
        pool = scratch()
        size = keys.size
        collapsed = self._collapse(keys, pool)
        row = self._decode(collapsed, pool)
        if len(self.spill_keys):
            # Spillover overrides (exact-match TCAM): same priority as
            # the scalar path — the TCAM answer replaces the decoded
            # pointer and then flows through the same checks.
            spill_slot = np.searchsorted(self.spill_keys, collapsed)
            np.minimum(spill_slot, len(self.spill_keys) - 1, out=spill_slot)
            spilled = pool.get("spilled", size, bool)
            np.equal(self.spill_keys.take(spill_slot), collapsed, out=spilled)
            np.copyto(row, self.spill_values.take(spill_slot), where=spilled)
        np.minimum(row, self.capacity, out=row)
        # Pointer range: entry ``capacity`` is the never-matching
        # sentinel every out-of-range pointer was clamped onto.
        found = pool.get("found", size, bool)
        filters = pool.get("filters", size, self.filters.dtype)
        self.filters.take(row, out=filters, mode="clip")
        np.equal(filters, collapsed, out=found)
        # Bit test and rank in one left shift: the key's expansion bit
        # lands on the top bit, the bits above it fall off, and the
        # popcount of what stays is the inclusive rank.  Dirty and
        # empty buckets store 0 and fail the bit test.
        vectors = pool.get("vectors", size, self.bitvectors.dtype)
        self.bitvectors.take(row, out=vectors, mode="clip")
        top = 8 * vectors.itemsize - 1
        if self.span:
            # The key's expansion bits, narrowed to the vectors' dtype
            # (the mask keeps only bits the narrowing cannot drop).
            shift = pool.get("shift", size, vectors.dtype)
            np.right_shift(
                keys, np.uint64(self.width - self.base - self.span), out=shift)
            np.bitwise_and(shift, (1 << self.span) - 1, out=shift)
            np.subtract(vectors.dtype.type(top), shift, out=shift)
            np.left_shift(vectors, shift, out=vectors)
        else:
            np.left_shift(vectors, vectors.dtype.type(top), out=vectors)
        bit_set = pool.get("bit_set", size, bool)
        np.greater_equal(vectors, vectors.dtype.type(1 << top), out=bit_set)
        np.logical_and(found, bit_set, out=found)
        rank = pool.get("rank", size, np.uint8)
        np.bitwise_count(vectors, out=rank)
        # Result-Table address = region + rank - 1, in [0, arena_size):
        # one unsigned compare refuses negative and past-the-end alike,
        # never a silent clamp onto a real entry.
        regions = pool.get("regions", size, _REGION)
        self.regionptrs.take(row, out=regions, mode="clip")
        address = pool.get("address", size, np.intp)
        np.add(regions, rank, out=address, dtype=np.intp)
        np.subtract(address, 1, out=address)
        np.less(address.view(np.uint64), np.uint64(self.arena_size),
                out=bit_set)
        np.logical_and(found, bit_set, out=found)
        hops = pool.get("hops", size, self.arena.dtype)
        self.arena.take(address, out=hops, mode="clip")
        return found, hops
