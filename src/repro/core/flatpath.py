"""Cache-aware flat datapath: fused per-bucket records, one-pass decode.

# chisel-analyze-scope: dtype

``BatchLookup`` compiles every sub-cell into one :class:`FlatSubCellPlan`
that walks the Fig. 6 datapath over whole key batches, laid out the way
"Cache-aware data structures for packet forwarding tables" (PAPERS.md)
recommends and the way Chisel §4.3's on-chip datapath co-locates
Filter/bit-vector/Region state per bucket:

* **Fused records** — one 64-byte row per bucket pointer (8 uint64
  lanes: Filter value, valid flag, bit-vector, Region pointer, four
  reserved), base-aligned to a cache line.  The whole post-decode half
  of the datapath becomes a single gather: one random access touches
  one cache line instead of four (one per separate table).
* **One-pass decode** — every partition group's hash byte-tables are
  concatenated into ``(k, nb, d·256)`` arrays addressed by
  ``(group << 8) | byte`` and the group Index-Table words into one flat
  array with per-group offsets, so partition routing is just part of
  the gather index instead of a ``d``-iteration masking loop.
* **Allocation-free pipeline** — every intermediate lives in a
  per-thread scratch pool (grown geometrically, reused across batches);
  the only steady-state allocations left are numpy's internal index
  casts.

The plan is compiled straight from the sub-cell's own tables
(:meth:`FlatSubCellPlan.compile`) and must be bit-exact with the scalar
``ChiselLPM.lookup`` (``tests/test_flat_differential.py`` is the gate).
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

_MISS = np.int64(-1)
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Lanes of one fused record row (64 bytes = 8 uint64 words).  Lane
#: order is load-bearing for the shard codec and the fault injector.
RECORD_LANES: Dict[str, int] = {
    "filter": 0,      # collapsed key stored in the Filter Table
    "valid": 1,       # 1 = entry present and not dirty
    "bitvector": 2,   # the 2**span expansion bit-vector word
    "regionptr": 3,   # Result-Table region pointer (int64 bit pattern)
}

#: uint64 words per record row; 8 × 8 bytes = one 64-byte cache line.
RECORD_WIDTH = 8

_FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_U8 = np.uint64(8)
_U63 = np.uint64(63)


def aligned_zeros(shape, dtype=np.uint64, align: int = 64) -> np.ndarray:
    """A zeroed array whose base address is ``align``-byte aligned.

    numpy only guarantees 16-byte alignment; fused record rows are sized
    to cache lines, so the base must start on one for rows to stay
    line-aligned.  Over-allocate and slice to the aligned offset.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape)) if shape else 1
    raw = np.zeros(count * dtype.itemsize + align, dtype=np.uint8)
    offset = (-raw.ctypes.data) % align
    view = raw[offset:offset + count * dtype.itemsize].view(dtype)
    return view.reshape(shape)


class _ScratchPool:
    """Named reusable buffers for one thread's batch pipeline.

    Buffers grow geometrically and are handed out as prefix slices, so a
    steady stream of equal-size batches allocates nothing after warmup.
    The pool is per-thread (see :func:`scratch`): two threads sharing a
    snapshot never share an intermediate.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            capacity = max(size, 1024)
            if buffer is not None:
                capacity = max(capacity, 2 * buffer.size)
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size]


_LOCAL = threading.local()


def scratch() -> _ScratchPool:
    """This thread's scratch pool."""
    pool = getattr(_LOCAL, "pool", None)
    if pool is None:
        pool = _ScratchPool()
        _LOCAL.pool = pool
    return pool


def popcount64(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """SWAR popcount over uint64 (numpy lacks a builtin).

    With ``out`` the whole fold runs in place, its shifted halves in this
    thread's scratch pool, so the datapath allocates nothing here.
    """
    if out is None:
        out = values.copy()
    elif out is not values:
        np.copyto(out, values)
    pool = scratch()
    tmp = pool.get("popcount_tmp", out.size, np.uint64)
    np.right_shift(out, np.uint64(1), out=tmp)
    np.bitwise_and(tmp, np.uint64(0x5555555555555555), out=tmp)
    np.subtract(out, tmp, out=out)
    np.right_shift(out, np.uint64(2), out=tmp)
    np.bitwise_and(tmp, np.uint64(0x3333333333333333), out=tmp)
    np.bitwise_and(out, np.uint64(0x3333333333333333), out=out)
    np.add(out, tmp, out=out)
    np.right_shift(out, np.uint64(4), out=tmp)
    np.add(out, tmp, out=out)
    np.bitwise_and(out, np.uint64(0x0F0F0F0F0F0F0F0F), out=out)
    # The SWAR multiply wraps mod 2**64 on purpose: the per-byte counts
    # it folds into the top byte never carry past it.
    np.multiply(out, np.uint64(0x0101010101010101), out=out)  # chisel: noqa[ANZ302]
    np.right_shift(out, np.uint64(56), out=out)
    return out


def build_records(subcell) -> np.ndarray:
    """The fused per-bucket record table for one sub-cell.

    One cache-line row per bucket pointer; see :data:`RECORD_LANES` for
    the lane layout.  Region pointers are stored as their int64 bit
    pattern so a (test-injected) negative pointer round-trips exactly.
    """
    filters = subcell.filter_table
    records = aligned_zeros((subcell.capacity, RECORD_WIDTH), dtype=np.uint64)
    records[:, RECORD_LANES["filter"]] = np.array(
        [0 if value is None else value for value in filters],
        dtype=np.uint64)
    records[:, RECORD_LANES["valid"]] = np.array(
        [value is not None and not dirty
         for value, dirty in zip(filters, subcell.dirty_table)],
        dtype=np.uint64)
    records[:, RECORD_LANES["bitvector"]] = np.array(
        subcell.bv_table, dtype=np.uint64)
    records[:, RECORD_LANES["regionptr"]] = np.array(
        subcell.region_ptr, dtype=np.int64).view(np.uint64)
    return records


class _FusedIndex:
    """All partition groups of one sub-cell as combined flat arrays.

    ``hash_tables[i, p]`` holds hash ``i``'s byte-``p`` table for every
    group, concatenated at 256-entry strides, so ``(group << 8) | byte``
    addresses the right word without any per-group dispatch.  Every
    group of a sub-cell is built by one backend from one capacity, so
    all ``d`` groups share one geometry: the group Index-Table words
    live concatenated in ``table``, group ``g``'s at ``g * group_length``,
    and one ``segment`` (and, for fuse, one ``start_range``) serves them
    all — the decode needs no per-key segment or offset gathers.
    """

    __slots__ = (
        "kind", "num_hashes", "num_bytes", "num_groups", "hash_tables",
        "table", "group_length", "segment", "start_tables", "start_range",
        "packed_tables", "packed_shifts", "packed_masks",
        "packed_start_shift", "packed_start_mask", "condsub_ok",
    )

    def __init__(self, kind: str, num_hashes: int, num_bytes: int,
                 num_groups: int, hash_tables: np.ndarray,
                 table: np.ndarray, segment: int,
                 start_tables: Optional[np.ndarray] = None,
                 start_range: Optional[int] = None) -> None:
        self.kind = kind
        self.num_hashes = num_hashes
        self.num_bytes = num_bytes
        self.num_groups = num_groups
        self.hash_tables = hash_tables
        self.table = table
        self.group_length = np.uint64(len(table) // num_groups)
        self.segment = np.uint64(segment)
        self.start_tables = start_tables
        self.start_range = (None if start_range is None
                            else np.uint64(start_range))
        self._build_packed()

    def _build_packed(self) -> None:
        """Pack every hash's byte tables into one gather per key byte.

        Tabulation entries are drawn with ``out_bits`` just wide enough
        for their segment, and an XOR fold never widens a bit field, so
        the ``num_hashes`` (plus, for fuse, the start hash's) byte
        tables fit as disjoint bit fields of a single uint64 table:
        ``num_hashes * num_bytes`` gathers collapse to ``num_bytes``,
        and the fold stays exact because XOR never carries between
        fields.  ``condsub_ok`` records the companion bound — folded
        values < 2 * segment for every hash — which lets the per-hash
        modulus run as one conditional subtract instead of a 64-bit
        integer division (~5x cheaper per numpy call).

        Derived purely from the concatenated tables, so the codec's
        attach path rebuilds it for free; widths come from the actual
        table maxima, keeping custom hash families with wider entries
        correct (they simply fall back to the unpacked gathers).
        """
        self.packed_tables = None
        self.packed_shifts = ()
        self.packed_masks = ()
        self.packed_start_shift = None
        self.packed_start_mask = None
        hash_max = [int(value) for value in self.hash_tables.max(axis=(1, 2))]
        self.condsub_ok = all(
            1 << max(value.bit_length() - 1, 0) <= int(self.segment)
            for value in hash_max
        )
        widths = [max(1, value.bit_length()) for value in hash_max]
        if sum(widths) > 64:
            return
        shifts: List[np.uint64] = []
        masks: List[np.uint64] = []
        packed = np.zeros_like(self.hash_tables[0])
        position = 0
        for h, width in enumerate(widths):
            shifts.append(np.uint64(position))
            masks.append(np.uint64((1 << width) - 1))
            packed |= self.hash_tables[h] << np.uint64(position)
            position += width
        if self.start_tables is not None:
            start_width = max(1, int(self.start_tables.max()).bit_length())
            if position + start_width <= 64:
                # The start hash rides along; otherwise it keeps its own
                # gathers and only the offset hashes share the packed one.
                packed |= self.start_tables << np.uint64(position)
                self.packed_start_shift = np.uint64(position)
                self.packed_start_mask = np.uint64((1 << start_width) - 1)
        self.packed_tables = packed
        self.packed_shifts = tuple(shifts)
        self.packed_masks = tuple(masks)

    @classmethod
    def from_groups(cls, groups: Sequence) -> "_FusedIndex":
        """Fuse one sub-cell's partition groups straight from the backends.

        Every group of a ``PartitionedBloomierFilter`` is built by one
        backend with one ``key_bits``, k and capacity, so the first
        group's geometry is every group's and their tables stack
        without padding.
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
        table = np.concatenate(
            [np.array(group.table, dtype=np.uint64) for group in groups])
        start_tables: Optional[np.ndarray] = None
        start_range: Optional[int] = None
        if kind == "fuse":
            start_tables = np.ascontiguousarray(np.array(
                [group.start_hash.byte_tables[:num_bytes] for group in groups],
                dtype=np.uint64).transpose(1, 0, 2)).reshape(
                    num_bytes, num_groups * 256)
            start_range = first.start_range
        return cls(kind, num_hashes, num_bytes, num_groups, hash_tables,
                   table, segment, start_tables, start_range)


class FlatSubCellPlan:
    """One sub-cell's datapath over fused records + combined group tables.

    Construct with :meth:`compile` from a built ``SubCell``, or rebuild
    field-by-field via ``__new__`` (the shard codec's attach path).
    """

    __slots__ = (
        "base", "span", "width", "capacity", "partitions", "checksum",
        "fused", "records", "arena", "arena_size", "spill_keys",
        "spill_values",
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
        plan.partitions = np.uint64(index.partitions)
        key_bytes = (max(1, subcell.base) + 7) // 8
        plan.checksum = np.array(
            index.checksum_hash.byte_tables[:key_bytes], dtype=np.uint64)
        plan.fused = _FusedIndex.from_groups(index.groups)
        plan.records = build_records(subcell)
        arena = subcell.result.arena
        plan.arena_size = len(arena)
        # Keep one placeholder entry so gathers stay legal on an empty
        # arena; ``arena_size`` (not the array length) bounds validity.
        plan.arena = np.array(arena if arena else [0], dtype=np.int64)
        spill_items = sorted(index.spillover)
        plan.spill_keys = np.array(
            [key for key, _value in spill_items], dtype=np.uint64)
        plan.spill_values = np.array(
            [value for _key, value in spill_items], dtype=np.uint64)
        return plan

    def _collapse(self, keys: np.ndarray, pool: _ScratchPool) -> np.ndarray:
        collapsed = pool.get("collapsed", keys.size, np.uint64)
        if self.base == 0:
            collapsed[:] = 0
        elif self.base < self.width:
            np.right_shift(
                keys, np.uint64(self.width - self.base), out=collapsed)
        else:
            np.copyto(collapsed, keys)
        return collapsed

    def _decode(self, collapsed: np.ndarray,
                pool: _ScratchPool) -> np.ndarray:
        """Checksum-route and XOR-decode pointers for the whole batch."""
        size = collapsed.size
        fused = self.fused
        num_bytes = max(self.checksum.shape[0], fused.num_bytes)
        checksum = pool.get("checksum", size, np.uint64)
        checksum[:] = 0
        word = pool.get("word", size, np.uint64)
        byte_indices: List[np.ndarray] = []
        if _LITTLE_ENDIAN:
            key_bytes = collapsed.view(np.uint8)
        for position in range(num_bytes):
            index = pool.get(f"byte{position}", size, np.intp)
            if _LITTLE_ENDIAN:
                # Byte p of key i sits at key_bytes[8 * i + p]: one
                # strided widening copy instead of shift/mask/cast.
                np.copyto(index, key_bytes[position::8], casting="unsafe")
            else:
                shifted = pool.get("shifted", size, np.uint64)
                np.right_shift(
                    collapsed, np.uint64(8 * position), out=shifted)
                np.bitwise_and(shifted, np.uint64(0xFF), out=shifted)
                np.copyto(index, shifted, casting="unsafe")
            byte_indices.append(index)
            if position < self.checksum.shape[0]:
                self.checksum[position].take(index, out=word)
                np.bitwise_xor(checksum, word, out=checksum)
        # Partition routing folds into the gather index: group << 8 | byte.
        group_of = pool.get("group_of", size, np.uint64)
        np.copyto(group_of, checksum, casting="unsafe")
        partitions = int(self.partitions)
        if partitions & (partitions - 1) == 0:
            np.bitwise_and(
                group_of, np.uint64(partitions - 1), out=group_of)
        else:
            group_of %= self.partitions
        if fused.num_groups > 1:
            np.left_shift(group_of, _U8, out=checksum)  # reuse as gbase
            for position in range(fused.num_bytes):
                index = byte_indices[position]
                np.bitwise_or(index, checksum.view(np.int64),
                              out=index, casting="unsafe")
        # One geometry for every group: offsets are an affine function
        # of the group and the segment size is one constant.
        offsets = pool.get("offsets", size, np.uint64)
        np.multiply(group_of, fused.group_length, out=offsets)
        pointers = pool.get("pointers", size, np.uint64)
        pointers[:] = 0
        accumulator = pool.get("accumulator", size, np.uint64)
        slot = pool.get("slot", size, np.intp)
        packed = fused.packed_tables is not None
        if packed:
            # One gather per key byte decodes every hash at once: the
            # fields XOR-fold independently (no carries), and each hash
            # unpacks below with a shift + mask.
            packacc = pool.get("packacc", size, np.uint64)
            packacc[:] = 0
            for position in range(fused.num_bytes):
                fused.packed_tables[position].take(
                    byte_indices[position], out=word)
                np.bitwise_xor(packacc, word, out=packacc)
        if fused.kind == "fuse":
            start = pool.get("start", size, np.uint64)
            if packed and fused.packed_start_shift is not None:
                np.right_shift(packacc, fused.packed_start_shift, out=start)
                np.bitwise_and(start, fused.packed_start_mask, out=start)
            else:
                start[:] = 0
                for position in range(fused.num_bytes):
                    fused.start_tables[position].take(
                        byte_indices[position], out=word)
                    np.bitwise_xor(start, word, out=start)
            # The start hash is deliberately wider than its range (the
            # builder pads by 4 bits), so it keeps the true modulus.
            np.mod(start, fused.start_range, out=start)
        for hash_index in range(fused.num_hashes):
            if packed:
                np.right_shift(
                    packacc, fused.packed_shifts[hash_index],
                    out=accumulator)
                np.bitwise_and(
                    accumulator, fused.packed_masks[hash_index],
                    out=accumulator)
            else:
                accumulator[:] = 0
                for position in range(fused.num_bytes):
                    fused.hash_tables[hash_index, position].take(
                        byte_indices[position], out=word)
                    np.bitwise_xor(accumulator, word, out=accumulator)
            if fused.kind == "fuse":
                # slot = (start + i) * segment_length + offset_hash + base;
                # the product stays far below 2**64 (tables are megabytes,
                # not exabytes).
                np.add(start, np.uint64(hash_index), out=word)
                np.multiply(word, fused.segment, out=word)  # chisel: noqa[ANZ302]
                np.add(accumulator, word, out=accumulator)
            else:
                if fused.condsub_ok:
                    # Folded hashes are < 2 * segment (out_bits sizing),
                    # so the modulus is one conditional subtract: the
                    # wrapped difference only wins the minimum when the
                    # value was >= segment.
                    np.subtract(accumulator, fused.segment, out=word)
                    np.minimum(accumulator, word, out=accumulator)
                else:
                    np.mod(accumulator, fused.segment, out=accumulator)
                if hash_index:
                    # hash_index * segment_size stays far below 2**64
                    # (tables are megabytes, not exabytes).
                    np.add(
                        accumulator,
                        np.uint64(hash_index * int(fused.segment)),
                        out=accumulator)
            np.add(accumulator, offsets, out=accumulator)
            np.copyto(slot, accumulator, casting="unsafe")
            fused.table.take(slot, out=word)
            np.bitwise_xor(pointers, word, out=pointers)
        return pointers

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Next hops for a key batch; -1 marks misses.

        Returns a scratch-backed array valid until this thread's next
        ``lookup`` call — callers (``BatchLookup.lookup_batch``) consume
        it before probing the next sub-cell.
        """
        pool = scratch()
        size = keys.size
        collapsed = self._collapse(keys, pool)
        pointers = self._decode(collapsed, pool)
        word = pool.get("word", size, np.uint64)
        # Spillover overrides (exact-match TCAM): same priority as the
        # scalar path — the TCAM answer replaces the decoded pointer and
        # then flows through the same Filter/bit-vector/range checks.
        if len(self.spill_keys):
            spill_slot = np.searchsorted(self.spill_keys, collapsed)
            np.minimum(spill_slot, len(self.spill_keys) - 1, out=spill_slot)
            spilled = pool.get("spilled", size, bool)
            self.spill_keys.take(spill_slot, out=word)
            np.equal(word, collapsed, out=spilled)
            self.spill_values.take(spill_slot, out=word)
            np.copyto(pointers, word, where=spilled)
        # Bounds + the single fused-record gather.
        valid = pool.get("valid", size, bool)
        invalid = pool.get("invalid", size, bool)
        np.less(pointers, np.uint64(self.capacity), out=valid)  # in range
        np.logical_not(valid, out=invalid)
        row = pool.get("row", size, np.intp)
        np.copyto(row, pointers, casting="unsafe")
        np.copyto(row, 0, where=invalid)
        np.left_shift(row, 3, out=row)  # × RECORD_WIDTH
        flat_records = self.records.reshape(-1)
        fvalues = pool.get("fvalues", size, np.uint64)
        flat_records.take(row, out=fvalues)
        row += RECORD_LANES["valid"] - RECORD_LANES["filter"]
        flags = pool.get("flags", size, np.uint64)
        flat_records.take(row, out=flags)
        row += RECORD_LANES["bitvector"] - RECORD_LANES["valid"]
        vectors = pool.get("vectors", size, np.uint64)
        flat_records.take(row, out=vectors)
        row += RECORD_LANES["regionptr"] - RECORD_LANES["bitvector"]
        region = pool.get("region", size, np.uint64)
        flat_records.take(row, out=region)
        region_i64 = region.view(np.int64)
        # Filter-table check: in range & present & key compare.
        hit = pool.get("hit", size, bool)
        np.equal(fvalues, collapsed, out=hit)
        np.logical_and(valid, hit, out=valid)
        np.not_equal(flags, 0, out=hit)
        np.logical_and(valid, hit, out=valid)
        # Bit-vector rank into the region.
        expansion = pool.get("expansion", size, np.uint64)
        if self.span:
            np.right_shift(
                keys, np.uint64(self.width - self.base - self.span),
                out=expansion)
            np.bitwise_and(
                expansion, np.uint64((1 << self.span) - 1), out=expansion)
        else:
            expansion[:] = 0
        bit_set = pool.get("bit_set", size, bool)
        np.right_shift(vectors, expansion, out=word)
        np.bitwise_and(word, np.uint64(1), out=word)
        np.not_equal(word, 0, out=bit_set)
        np.logical_and(valid, bit_set, out=valid)
        # Inclusive mask of bits [0, expansion], overflow-safe at span 6
        # (a 64-shift would wrap): built as a right shift of all-ones.
        np.subtract(_U63, expansion, out=word)
        np.right_shift(_FULL64, word, out=word)
        np.bitwise_and(vectors, word, out=word)
        rank = popcount64(word, out=word)
        address = pool.get("address", size, np.int64)
        np.copyto(address, rank, casting="unsafe")
        address += region_i64
        address -= 1
        # Out-of-range Result-Table addresses are misses, never a silent
        # clamp onto arena[0] (which would fabricate next hop 0).
        np.greater_equal(address, 0, out=bit_set)  # reuse as addressable
        np.logical_and(valid, bit_set, out=valid)
        np.less(address, self.arena_size, out=bit_set)
        np.logical_and(valid, bit_set, out=valid)
        np.logical_not(valid, out=invalid)
        np.copyto(address, 0, where=invalid)
        answers = pool.get("answers", size, np.int64)
        self.arena.take(address, out=answers)
        np.copyto(answers, _MISS, where=invalid)
        return answers
