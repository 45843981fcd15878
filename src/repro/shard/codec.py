"""``SharedSnapshot`` — a compiled snapshot as one shared-memory segment.

A ``BatchLookup`` is already the right shape for multi-core serving: every
table the Fig. 6 datapath reads (Index-Table group words, checksum-hash
byte tables, Filter values, bit-vectors, Region pointers, the
Result-Table arena, the spillover TCAM arrays) is an immutable numpy
array, private to the snapshot.  This codec flattens that array tree
into a single ``multiprocessing.shared_memory`` segment:

::

    [u64 header length][header JSON][64-byte-aligned array payload ...]

The header carries the generation number, every table's name, dtype,
shape and payload offset, and ``checksums``: each table's full 64-bit
digest, followed by a 64-bit digest of the header itself (everything but
the checksums), so a flipped sub-cell base, table offset or sequence
number is refused like a flipped table word — a torn or corrupted
*publish* is detected, never served.  ``attach`` verifies both and
rebuilds zero-copy read-only ``np.ndarray`` views over the segment, so N
worker processes share one physical copy of the tables (the software
analogue of §4.3.2's parallel sub-cell lookups reading one memory).

Segments are **immutable after export**: a new generation is a new
segment, never an in-place rewrite — that is what makes the generation
fence in :mod:`repro.shard.coordinator` sufficient for consistency (no
reader can ever observe a torn table, only an old-but-internally-consistent
one).
A worker that applies word bursts copies the tables they touch into its
own memory first (``FlatSubCellPlan.write_burst``); the views stay
read-only.

The encode/decode core is split buffer-agnostic on purpose:
:func:`encode_image` + :class:`SnapshotImage` operate over any writable /
readable buffer, so the same format backs both shared-memory segments
(this module) and the on-disk ``mmap`` checkpoints in
:mod:`repro.store.checkpoint` — one layout, one verifier, two transports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple, cast

import numpy as np

from ..core.batch import BatchLookup
from ..core.flatpath import RECORD_ARRAYS, FlatSubCellPlan, _FusedIndex
from ..integrity import IntegrityError

#: Image format 3: geometry-sized bucket arrays with a sentinel entry,
#: one copy of the hash byte tables packed at their narrowest, and
#: group-local Index words.  Older images are refused.
_MAGIC = "chisel-shard-v3"

#: Payload arrays start on 64-byte boundaries (cache-line alignment; also
#: keeps uint64 views legal regardless of neighbouring array sizes).
_ALIGN = 64

#: Fibonacci-hash odd constant for the position-dependent digest mix.
_DIGEST_MIX = np.uint64(0x9E3779B97F4A7C15)


class SnapshotIntegrityError(IntegrityError, RuntimeError):
    """An attached segment failed header or checksum validation."""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def table_digest(array: np.ndarray) -> int:
    """A 64-bit position-dependent fold of one table's bytes.

    Vectorized (the scalar :func:`repro.faults.syndrome` walk would cost
    seconds on megabyte tables): the byte image is widened to uint64
    words, each word is mixed with its position (so reordering words is
    detected, unlike a plain XOR fold), and the words are XOR-reduced.
    Images store every table's digest in full.
    """
    flat = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
    usable = len(flat) - (len(flat) % 8)
    accumulator = np.uint64(0)
    if usable:
        words = flat[:usable].view(np.uint64)
        index = np.arange(len(words), dtype=np.uint64)
        # The digest mix multiply wraps mod 2**64 by design (it is a
        # hash, not arithmetic).
        accumulator = np.bitwise_xor.reduce(words * _DIGEST_MIX + index)  # chisel: noqa[ANZ302]
    tail = 0
    for position, byte in enumerate(flat[usable:]):
        tail |= int(byte) << (8 * position)
    return (int(accumulator) ^ tail ^ array.nbytes) & 0xFFFFFFFFFFFFFFFF


def header_digest(header: Dict[str, object]) -> int:
    """A 64-bit digest of the canonical header, ``checksums`` excluded.

    Stored as the last ``checksums`` entry, after the table digests:
    any single flipped digit (a sub-cell base, a table offset) would
    otherwise serve wrong answers.
    """
    canonical = json.dumps(
        {key: value for key, value in header.items() if key != "checksums"},
        sort_keys=True, separators=(",", ":"))
    digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def _flatten(lookup: BatchLookup) -> Tuple[List[Tuple[str, np.ndarray]],
                                           Dict[str, object]]:
    """The (name, array) list and scalar metadata tree of a snapshot."""
    tables: List[Tuple[str, np.ndarray]] = []
    meta: Dict[str, object] = {
        "width": lookup.width,
        "subcells": [],
    }
    for cell_index, plan in enumerate(lookup._plans):
        meta["subcells"].append(
            _flatten_cell(f"s{cell_index}", plan, tables))
    return tables, meta


def _flatten_cell(prefix: str, plan: FlatSubCellPlan,
                  tables: List[Tuple[str, np.ndarray]]) -> Dict[str, object]:
    """Emit one sub-cell's tables and metadata.

    A sub-cell serializes as its arrays, each at the dtype the compile
    gave it: the checksum byte-tables, the hash byte-tables (packed or
    per hash, one copy), the fuse start-hash tables when they are not
    packed in, the concatenated Index-Table words, the three bucket
    arrays (sentinel entry included), the arena and the spillover
    arrays.  The one group geometry and the hash field widths ride in
    the metadata.
    """
    fused = plan.fused
    cell_meta: Dict[str, object] = {
        "layout": "flat",
        "base": plan.base,
        "span": plan.span,
        "capacity": plan.capacity,
        "partitions": plan.partitions,
        "run": plan.run,
        "arena_size": plan.arena_size,
        "index_kind": fused.kind,
        "num_hashes": fused.num_hashes,
        "num_bytes": fused.num_bytes,
        "num_groups": fused.num_groups,
        "segment": fused.segment,
        "widths": list(fused.widths),
    }
    tables.append((f"{prefix}/checksum", plan.checksum))
    tables.append((f"{prefix}/fused/hash_tables", fused.hash_tables))
    tables.append((f"{prefix}/fused/table", fused.table))
    if fused.kind == "fuse":
        if fused.start_range is None:
            raise ValueError(
                f"{prefix}: fuse-kind fused index missing its start hash"
            )
        cell_meta["start_range"] = fused.start_range
        if fused.start_tables is not None:
            tables.append((f"{prefix}/fused/start_tables",
                           fused.start_tables))
    for array_name in RECORD_ARRAYS.values():
        tables.append((f"{prefix}/{array_name}", getattr(plan, array_name)))
    # A patched plan's arena carries growth slack past ``arena_size``;
    # the image holds what a fresh compile would (one entry minimum).
    tables.append((f"{prefix}/arena", plan.arena[:max(plan.arena_size, 1)]))
    tables.append((f"{prefix}/spill_keys", plan.spill_keys))
    tables.append((f"{prefix}/spill_values", plan.spill_values))
    return cell_meta


class SharedBatchLookup(BatchLookup):
    """A ``BatchLookup`` whose plan arrays are views on an encoded image.

    Behaviourally identical to the snapshot it was exported from (the
    differential suite in tests/test_shard.py is the gate).  A shard
    segment is immutable and has no engine (``stale`` is False): a
    worker keeps it current with word bursts, written into private
    copies of the tables they touch.  A cold start binds the engine
    unpickled beside a checkpoint and patches the views.  The front
    table is not in the image: it is derived here, from the plans.
    """

    def __init__(self, width: int, plans: List[FlatSubCellPlan],
                 generation: int) -> None:
        self.engine = None  # type: ignore[assignment]
        self.width = width
        self._plans = plans
        self.generation = generation
        self._derive()


@dataclass
class EncodedImage:
    """One snapshot rendered for writing: header bytes + payload plan."""

    header: Dict[str, object]
    header_bytes: bytes
    entries: List[Dict[str, object]]
    arrays: List[np.ndarray]
    payload_start: int
    total_size: int


def encode_image(lookup: BatchLookup, generation: int, magic: str = _MAGIC,
                 blobs: Optional[Dict[str, bytes]] = None,
                 extra: Optional[Dict[str, object]] = None) -> EncodedImage:
    """Flatten a compiled snapshot into the shared header+payload layout.

    ``blobs`` adds opaque byte strings (e.g. the store's pickled
    forwarding-engine state) as uint8 tables named ``blob/<name>`` —
    covered by a digest like every other table.  ``extra``
    is merged into the header under ``"extra"`` (checkpoint sequence
    numbers and friends); it must be JSON-serializable.
    """
    tables, meta = _flatten(lookup)
    for blob_name in sorted(blobs or {}):
        payload = (blobs or {})[blob_name]
        tables.append((
            f"blob/{blob_name}",
            np.frombuffer(payload, dtype=np.uint8, count=len(payload)),
        ))
    entries: List[Dict[str, object]] = []
    arrays: List[np.ndarray] = []
    offset = 0
    for table_name, array in tables:
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        entries.append({
            "name": table_name,
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "offset": offset,
        })
        arrays.append(array)
        offset += array.nbytes
    header: Dict[str, object] = {
        "magic": magic,
        "generation": int(generation),
        "width": lookup.width,
        "meta": meta,
        "tables": entries,
        "blobs": sorted(blobs or {}),
    }
    if extra:
        header["extra"] = extra
    header["checksums"] = ([table_digest(array) for array in arrays]
                           + [header_digest(header)])
    rendered = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload_start = _aligned(8 + len(rendered))
    total = max(payload_start + offset, payload_start + 1)
    return EncodedImage(header, rendered, entries, arrays,
                        payload_start, total)


def write_image_into(buffer: memoryview, encoded: EncodedImage) -> None:
    """Write an encoded snapshot into a pre-sized writable buffer."""
    buffer[:8] = len(encoded.header_bytes).to_bytes(8, "little")
    buffer[8:8 + len(encoded.header_bytes)] = encoded.header_bytes
    for entry, array in zip(encoded.entries, encoded.arrays):
        start = encoded.payload_start + int(entry["offset"])  # type: ignore[call-overload]
        view = np.frombuffer(
            buffer, dtype=array.dtype, count=array.size, offset=start
        )
        view[:] = array.reshape(-1)


def parse_image_header(buffer: memoryview, context: str,
                       magic: str = _MAGIC) -> Tuple[Dict[str, object], int]:
    """Validate and parse the ``[u64 length][JSON]`` header of one image.

    Returns ``(header, payload_start)``; raises
    :class:`SnapshotIntegrityError` on any structural damage (implausible
    length, unparseable JSON, wrong magic).  ``context`` names the buffer
    ("segment foo", "checkpoint /path") in error messages.
    """
    if len(buffer) < 8:
        raise SnapshotIntegrityError(
            f"{context}: too small to hold a header ({len(buffer)} bytes)"
        )
    header_length = int.from_bytes(bytes(buffer[:8]), "little")
    if not 0 < header_length <= len(buffer) - 8:
        raise SnapshotIntegrityError(
            f"{context}: implausible header length {header_length}"
        )
    try:
        header = json.loads(
            bytes(buffer[8:8 + header_length]).decode("utf-8")
        )
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and an integer past
        # Python's digit limit; RecursionError, nesting past its depth.
        raise SnapshotIntegrityError(
            f"{context}: unparseable header: {error}"
        ) from error
    if not isinstance(header, dict) or header.get("magic") != magic:
        found = header.get("magic") if isinstance(header, dict) else None
        raise SnapshotIntegrityError(
            f"{context}: bad magic {found!r} (wanted {magic!r})"
        )
    payload_start = _aligned(8 + header_length)
    if payload_start > len(buffer):
        raise SnapshotIntegrityError(
            f"{context}: payload starts past the end of the buffer"
        )
    return header, payload_start


class SnapshotImage:
    """Buffer-agnostic reader over one encoded snapshot image.

    Subclasses own the transport (a shared-memory segment here, an
    ``mmap`` of a checkpoint file in :mod:`repro.store.checkpoint`) and
    hand this base a readable buffer; everything else — checksum
    verification, zero-copy view reconstruction, plan rebuilding — is
    shared.
    """

    def __init__(self, buffer: memoryview, header: Dict[str, object],
                 payload_start: int, context: str,
                 writable: bool = False) -> None:
        self._buf = buffer
        self._header = header
        self._payload_start = payload_start
        self._context = context
        # A checkpoint's copy-on-write mapping hands out writable views;
        # a shard segment, shared between processes, never does.
        self._writable = writable
        self._entries: Dict[str, Dict[str, object]] = {
            entry["name"]: entry for entry in header["tables"]  # type: ignore[index, union-attr]
        }

    # -- validation ----------------------------------------------------------

    def verify(self) -> None:
        """Recompute the header digest and every table digest; raise on
        any disagreement, naming the damaged table.

        The header digest goes first: once it matches, the metadata the
        table views are rebuilt from is the metadata that was written.
        Any structural nonsense left — an unparseable dtype string, an
        impossible shape, an offset past the buffer — is damage too, so
        it surfaces as the same ``SnapshotIntegrityError``, never a raw
        TypeError/ValueError.  Images written before the header digest
        or the per-table digests existed fail here too (their checksum
        list is shorter than the table list).
        """
        stored = self._header.get("checksums")
        if not isinstance(stored, list) or not stored or \
                stored[-1] != header_digest(self._header):
            raise SnapshotIntegrityError(
                f"{self._context}: header digest mismatch — corrupted "
                f"header or an image written before header digests"
            )
        tables = self._header.get("tables")
        if not isinstance(tables, list) or len(stored) != len(tables) + 1:
            raise SnapshotIntegrityError(
                f"{self._context}: {len(stored) - 1} digests for "
                f"{len(tables) if isinstance(tables, list) else '?'} "
                f"tables — an image written before per-table digests"
            )
        try:
            last = tables[-1] if tables else None
            if last is not None:
                shape = tuple(last["shape"])
                count = int(np.prod(shape)) if shape else 1
                end = (self._payload_start + int(last["offset"])
                       + int(np.dtype(last["dtype"]).itemsize) * count)
                if end > len(self._buf):
                    raise SnapshotIntegrityError(
                        f"{self._context} generation {self.generation}: "
                        f"payload truncated ({len(self._buf)} bytes, needs "
                        f"{end}) — torn or incomplete write"
                    )
            for entry, digest in zip(tables, stored):
                if table_digest(self._array_view(entry)) != digest:
                    raise SnapshotIntegrityError(
                        f"{self._context} generation {self.generation}: "
                        f"digest mismatch in table {entry['name']!r} — "
                        f"torn or corrupted publish"
                    )
        except (TypeError, ValueError, KeyError, OverflowError) as error:
            raise SnapshotIntegrityError(
                f"{self._context}: malformed table metadata "
                f"({error}) — corrupted header"
            ) from error

    # -- reconstruction ------------------------------------------------------

    def _array_view(self, entry: Dict[str, object]) -> np.ndarray:
        dtype = np.dtype(entry["dtype"])  # type: ignore[arg-type]
        shape = tuple(entry["shape"])  # type: ignore[arg-type]
        count = int(np.prod(shape)) if shape else 1
        view = np.frombuffer(
            self._buf, dtype=dtype, count=count,
            offset=self._payload_start + int(entry["offset"]),  # type: ignore[call-overload]
        ).reshape(shape)
        view.flags.writeable = self._writable
        return view

    def _array(self, name: str) -> np.ndarray:
        return self._array_view(self._entries[name])

    def blob(self, name: str) -> bytes:
        """An opaque byte blob embedded at encode time (copied out)."""
        return bytes(self._array(f"blob/{name}"))

    def blob_names(self) -> List[str]:
        return list(self._header.get("blobs", []))  # type: ignore[call-overload, arg-type]

    def _plan(self, prefix: str, cell_meta: Dict[str, object],
              width: int) -> FlatSubCellPlan:
        """Rebuild one sub-cell's plan over zero-copy buffer views."""
        plan = FlatSubCellPlan.__new__(FlatSubCellPlan)
        plan.base = int(cell_meta["base"])  # type: ignore[call-overload]
        plan.span = int(cell_meta["span"])  # type: ignore[call-overload]
        plan.width = width
        plan.capacity = int(cell_meta["capacity"])  # type: ignore[call-overload]
        plan.partitions = int(cell_meta["partitions"])  # type: ignore[call-overload]
        plan.run = int(cell_meta["run"])  # type: ignore[call-overload]
        plan.arena_size = int(cell_meta["arena_size"])  # type: ignore[call-overload]
        plan.checksum = self._array(f"{prefix}/checksum")
        kind = str(cell_meta["index_kind"])
        start_tables: Optional[np.ndarray] = None
        start_range: Optional[int] = None
        if kind == "fuse":
            name = f"{prefix}/fused/start_tables"
            if name in self._entries:
                start_tables = self._array(name)
            start_range = int(cell_meta["start_range"])  # type: ignore[call-overload]
        plan.fused = _FusedIndex(
            kind,
            int(cell_meta["num_hashes"]),  # type: ignore[call-overload]
            int(cell_meta["num_bytes"]),  # type: ignore[call-overload]
            int(cell_meta["num_groups"]),  # type: ignore[call-overload]
            self._array(f"{prefix}/fused/table"),
            int(cell_meta["segment"]),  # type: ignore[call-overload]
            self._array(f"{prefix}/fused/hash_tables"),
            [int(bits) for bits in cast(List[int], cell_meta["widths"])],
            start_tables,
            start_range,
        )
        for array_name in RECORD_ARRAYS.values():
            setattr(plan, array_name, self._array(f"{prefix}/{array_name}"))
        plan.arena = self._array(f"{prefix}/arena")
        plan.spill_keys = self._array(f"{prefix}/spill_keys")
        plan.spill_values = self._array(f"{prefix}/spill_values")
        return plan

    def to_lookup(self) -> SharedBatchLookup:
        """Rebuild the batch datapath over zero-copy buffer views.

        Every sub-cell must carry ``layout: flat``; anything else (the
        per-table layout older exporters wrote) and any metadata the
        views cannot be rebuilt from raise ``SnapshotIntegrityError``.
        """
        try:
            meta = self._header["meta"]
            width = int(meta["width"])  # type: ignore[index, call-overload]
            plans: List[FlatSubCellPlan] = []
            for cell_index, cell_meta in enumerate(meta["subcells"]):  # type: ignore[index, call-overload]
                if cell_meta.get("layout") != "flat":
                    raise SnapshotIntegrityError(
                        f"{self._context}: sub-cell {cell_index} has layout "
                        f"{cell_meta.get('layout')!r}, not 'flat'"
                    )
                plans.append(self._plan(f"s{cell_index}", cell_meta, width))
        except (KeyError, TypeError, ValueError, IndexError,
                ArithmeticError, AttributeError) as error:
            raise SnapshotIntegrityError(
                f"{self._context}: malformed sub-cell metadata ({error!r})"
            ) from error
        return SharedBatchLookup(width, plans, self.generation)

    # -- header accessors ----------------------------------------------------

    @property
    def header(self) -> Dict[str, object]:
        return self._header

    @property
    def generation(self) -> int:
        return int(self._header["generation"])  # type: ignore[call-overload]

    @property
    def width(self) -> int:
        return int(self._header["width"])  # type: ignore[call-overload]

    @property
    def extra(self) -> Dict[str, object]:
        value = self._header.get("extra", {})
        return value if isinstance(value, dict) else {}


class SharedSnapshot(SnapshotImage):
    """One exported snapshot generation living in shared memory."""

    def __init__(self, shm: shared_memory.SharedMemory,
                 header: Dict[str, object], payload_start: int,
                 owner: bool) -> None:
        super().__init__(shm.buf, header, payload_start,
                         context=f"segment {shm.name}")
        self._shm = shm
        self._owner = owner
        self._closed = False

    # -- construction --------------------------------------------------------

    @classmethod
    def export(cls, lookup: BatchLookup, generation: int,
               name: Optional[str] = None) -> "SharedSnapshot":
        """Copy a compiled snapshot into a new segment.

        A served image is patched in place by every update, so the
        caller must keep it still for the whole copy: the shard
        coordinator exports inside ``SnapshotRouter.image_cut``, under
        the router's update lock.
        """
        encoded = encode_image(lookup, generation)
        shm = shared_memory.SharedMemory(create=True, size=encoded.total_size,
                                         name=name)
        write_image_into(shm.buf, encoded)
        return cls(shm, encoded.header, encoded.payload_start, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedSnapshot":
        """Attach to a published segment by name and verify it.

        Attaching re-registers the name with the process tree's shared
        ``resource_tracker`` — a no-op (the tracker's cache is a set) as
        long as coordinator and workers live in one tree, which the
        ``ShardCoordinator`` guarantees by spawning its own workers.
        Unregistering here instead would strip the creator's entry and
        break its own ``unlink`` accounting.
        """
        shm = shared_memory.SharedMemory(name=name)
        try:
            header, payload_start = parse_image_header(
                shm.buf, context=f"segment {name}")
            snapshot = cls(shm, header, payload_start, owner=False)
            snapshot.verify()
            return snapshot
        except Exception:
            shm.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def close(self) -> None:
        """Drop this process's mapping (views become invalid).

        Zero-copy views handed out by :meth:`to_lookup` keep the
        underlying mmap pinned; if any are still alive the mapping is
        leaked until process exit instead of crashing the caller — the
        segment *name* is released by ``unlink``/``retire`` regardless.
        """
        if not self._closed:
            self._closed = True
            try:
                self._shm.close()
            except BufferError:
                # Leak accepted: stop SharedMemory.__del__ from retrying
                # the close at GC time and spraying "Exception ignored".
                self._shm.close = lambda: None  # type: ignore[method-assign]

    def unlink(self) -> None:
        """Remove the segment name; mappings already attached survive."""
        self._shm.unlink()

    def retire(self) -> None:
        """Owner-side teardown: unlink the name, then drop the mapping
        (if this process still has one: the shard coordinator closes its
        own right after the export)."""
        try:
            self.unlink()
        except FileNotFoundError:
            # Already unlinked (a second retire).
            pass
        self.close()
