"""Deterministic fault injection for Chisel engines (``FaultInjector``).

Three fault families, matching how line cards actually fail:

* **Table faults** — soft errors in the hardware-resident tables: a
  single bit flip (or a whole-word scramble) in any of the seven word
  kinds a :class:`~repro.core.image.HardwareImage` snapshots — Index
  Table group words, Filter, dirty bits, Bit-vectors, region pointers,
  Result-Table arena words, spillover TCAM keys/values.  Injection
  targets *live* words (words a lookup can actually traverse), because a
  flip in a dead slot is harmless by construction and would only pad the
  statistics.
* **Update-stream faults** — duplicated records, reordered bursts, and
  malformed records (bad op, non-integer/negative next hop), the classic
  BGP-feed pathologies.
* **Setup-path faults** — context managers that force the failure modes
  the Bloomier literature warns about: peel non-convergence
  (``BloomierSetupError``) and spillover TCAM overflow
  (``SpilloverCapacityError``) at a point of the caller's choosing.

Everything is driven by one seeded ``random.Random`` so a chaos run is
fully reproducible from its seed.  The injector mutates only *hardware*
state — never the §4.4 software shadows — except for the explicitly
named :meth:`corrupt_shadow_pointer`, which models the rarer both-copies
hit that a scrub must classify as uncorrectable.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..bloomier import backend as _backend_module
from ..bloomier.backend import BloomierSetupError, XorIndexTable
from ..bloomier.peeling import PeelStallError
from ..core.chisel import ChiselLPM
from ..core.flatpath import RECORD_ARRAYS
from ..core.subcell import ChiselSubCell
from ..core.updates import ANNOUNCE, WITHDRAW, UpdateOp
from ..obs import get_registry

#: The word kinds the injector can target — the full HardwareImage set.
TABLE_KINDS = (
    "index", "filter", "dirty", "bitvector", "regionptr", "result",
    "spillover_key", "spillover_value",
)

#: Table kinds that live in a flat-datapath bucket array
#: (``repro.core.flatpath``), mapped to the plan attribute holding them.
#: The flat layout folds the dirty bit into the bit-vector (a dirty
#: bucket stores 0), so a dirty-kind fault targets the bit-vector word.
FLAT_RECORD_KINDS = dict(RECORD_ARRAYS, dirty=RECORD_ARRAYS["bitvector"])


def locate_record_word(kind: str, pointer: int) -> Tuple[str, int]:
    """(plan attribute, index) of one hardware word in a compiled plan.

    The scrub/chaos machinery addresses compiled words by (table kind,
    bucket pointer); in the flat datapath the Filter, bit-vector and
    Region-pointer tables are bucket arrays indexed by the pointer, and
    this is the mapping.  Kinds that are not bucket words (index,
    result, spillover) raise ``ValueError`` — they keep their own arrays.
    """
    if kind not in FLAT_RECORD_KINDS:
        raise ValueError(
            f"kind {kind!r} is not a bucket word; "
            f"record kinds: {sorted(FLAT_RECORD_KINDS)}"
        )
    return FLAT_RECORD_KINDS[kind], pointer


def corrupt_record_word(plan, kind: str, pointer: int,
                        bit: Optional[int] = None) -> FaultRecord:
    """Flip a bit of one bucket word (or mark the bucket dirty).

    Operates on a compiled :class:`repro.core.flatpath.FlatSubCellPlan`
    — the post-compile analogue of :meth:`FaultInjector.flip_table_bit`,
    for exercising the flat datapath's own guards (filter compare, bit
    test, addressable range) without a recompile.  A ``dirty`` fault
    clears the bucket's bit-vector word, which is how a dirty bucket is
    stored.  ``bit`` must lie inside the word's dtype.  Shared-segment
    plans are read-only and raise; corrupt before export instead.
    """
    name, index = locate_record_word(kind, pointer)
    array = getattr(plan, name)
    old = int(array[index])
    new = 0 if kind == "dirty" else old ^ (1 << (bit or 0))
    array[index] = np.array(new).astype(array.dtype)
    return FaultRecord(kind, plan.base, pointer, bit, old, int(array[index]),
                       detail="bucket word")


@dataclass(frozen=True)
class FaultRecord:
    """One injected table fault, enough to audit or replay it."""

    kind: str          # one of TABLE_KINDS
    subcell_base: int
    address: int       # table-local address (group slot, pointer, arena ix)
    bit: Optional[int]  # flipped bit position; None for a whole-word scramble
    old: object
    new: object
    detail: str = ""


class FaultInjector:
    """Seeded, replayable fault source for tables, traces, and setups."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.records: List[FaultRecord] = []
        self._obs_injected = get_registry().counter(
            "faults_injected_total", "table faults injected (all kinds)")

    # -- target enumeration ---------------------------------------------------

    def _live_targets(self, subcell: ChiselSubCell,
                      kind: str) -> List[Tuple[int, int]]:
        """(address, width) pairs a lookup can traverse, per table kind.

        ``address`` is table-local; for the index it is a flat slot index
        across groups, for the spillover an entry ordinal.  ``width`` is
        how many bits of the word are meaningful to flip.
        """
        targets: List[Tuple[int, int]] = []
        if kind == "index":
            offset = 0
            for group in subcell.index.groups:
                refcount = group._refcount
                width = max(1, group.value_bits)
                targets.extend(
                    (offset + slot, width)
                    for slot in range(group.num_slots)
                    if refcount[slot] > 0
                )
                offset += group.num_slots
            return targets
        if kind in ("spillover_key", "spillover_value"):
            tcam = subcell.index.spillover
            width = (tcam.key_bits if kind == "spillover_key"
                     else tcam.value_bits)
            return [(ordinal, max(1, width)) for ordinal in range(len(tcam))]
        for _value, bucket in subcell.buckets.items():
            pointer = bucket.pointer
            if kind == "filter":
                targets.append((pointer, max(1, subcell.base)))
            elif kind == "dirty":
                targets.append((pointer, 1))
            elif bucket.dirty:
                # bv/regionptr/result of a dirty bucket are dead words:
                # the dirty bit short-circuits the lookup before them.
                continue
            elif kind == "bitvector":
                targets.append((pointer, 1 << subcell.span))
            elif kind == "regionptr":
                width = max(1, len(subcell.result.arena).bit_length())
                targets.append((pointer, width))
            elif kind == "result":
                start = subcell.region_ptr_shadow[pointer]
                hops = bucket.ones()
                width = max(1, subcell.config.next_hop_bits)
                targets.extend(
                    (start + rank, width) for rank in range(hops)
                )
        return targets

    def _write(self, subcell: ChiselSubCell, kind: str, address: int,
               value) -> object:
        """Overwrite one hardware word; returns the old value."""
        if kind == "index":
            for group in subcell.index.groups:
                if address < group.num_slots:
                    old = group.table[address]
                    group.table[address] = value
                    return old
                address -= group.num_slots
            raise IndexError("index slot out of range")
        if kind in ("spillover_key", "spillover_value"):
            tcam = subcell.index.spillover
            entries = tcam._entries
            key = sorted(entries)[address]
            if kind == "spillover_value":
                old = entries[key]
                entries[key] = value
                return old
            old = key
            entries[value] = entries.pop(key)
            return old
        table = {
            "filter": subcell.filter_table,
            "dirty": subcell.dirty_table,
            "bitvector": subcell.bv_table,
            "regionptr": subcell.region_ptr,
            "result": subcell.result.arena,
        }[kind]
        old = table[address]
        table[address] = value
        return old

    def _read(self, subcell: ChiselSubCell, kind: str, address: int):
        if kind == "index":
            for group in subcell.index.groups:
                if address < group.num_slots:
                    return group.table[address]
                address -= group.num_slots
            raise IndexError("index slot out of range")
        if kind in ("spillover_key", "spillover_value"):
            tcam = subcell.index.spillover
            entries = tcam._entries
            key = sorted(entries)[address]
            return key if kind == "spillover_key" else entries[key]
        return {
            "filter": subcell.filter_table,
            "dirty": subcell.dirty_table,
            "bitvector": subcell.bv_table,
            "regionptr": subcell.region_ptr,
            "result": subcell.result.arena,
        }[kind][address]

    # -- table faults ---------------------------------------------------------

    def flip_table_bit(self, engine: ChiselLPM,
                       kind: Optional[str] = None) -> Optional[FaultRecord]:
        """Flip one random bit in one live word of one random sub-cell.

        ``kind`` restricts the table; ``None`` picks uniformly among the
        kinds that have live words.  Returns the fault record, or ``None``
        when no live target of the requested kind exists anywhere.
        """
        kinds = [kind] if kind else list(TABLE_KINDS)
        candidates: List[Tuple[ChiselSubCell, str, int, int]] = []
        for subcell in engine.subcells:
            for k in kinds:
                for address, width in self._live_targets(subcell, k):
                    candidates.append((subcell, k, address, width))
        if not candidates:
            return None
        subcell, k, address, width = self.rng.choice(candidates)
        bit = self.rng.randrange(width)
        old = self._read(subcell, k, address)
        if k == "dirty":
            new = not old
        elif old is None:
            # A live Filter word is never None; guard for completeness.
            new = 1 << bit
        else:
            new = old ^ (1 << bit)
        self._write(subcell, k, address, new)
        record = FaultRecord(k, subcell.base, address, bit, old, new)
        self.records.append(record)
        self._obs_injected.inc()
        get_registry().trace(
            "fault_injected", kind=k, subcell=subcell.base,
            address=address, bit=bit,
        )
        return record

    def scramble_word(self, engine: ChiselLPM,
                      kind: Optional[str] = None) -> Optional[FaultRecord]:
        """Replace one live word with a random value (multi-bit corruption)."""
        kinds = [kind] if kind else list(TABLE_KINDS)
        candidates: List[Tuple[ChiselSubCell, str, int, int]] = []
        for subcell in engine.subcells:
            for k in kinds:
                for address, width in self._live_targets(subcell, k):
                    candidates.append((subcell, k, address, width))
        if not candidates:
            return None
        subcell, k, address, width = self.rng.choice(candidates)
        old = self._read(subcell, k, address)
        if k == "dirty":
            new = not old
        else:
            new = self.rng.getrandbits(width)
            if new == old:
                new = old ^ 1
        self._write(subcell, k, address, new)
        record = FaultRecord(k, subcell.base, address, None, old, new,
                             detail="scramble")
        self.records.append(record)
        self._obs_injected.inc()
        return record

    def corrupt_shadow_pointer(self, engine: ChiselLPM) -> Optional[FaultRecord]:
        """Knock a bucket's *shadow* pointer out of range (uncorrectable).

        Models the rare event where the software shadow itself is hit:
        the scrubber can no longer derive an expected hardware state for
        that bucket and must report the sub-cell uncorrectable, which is
        the degraded-mode trigger.
        """
        populated = [
            (subcell, value)
            for subcell in engine.subcells
            for value in subcell.buckets
        ]
        if not populated:
            return None
        subcell, value = self.rng.choice(populated)
        bucket = subcell.buckets[value]
        old = bucket.pointer
        bucket.pointer = subcell.capacity + 17  # provably out of range
        record = FaultRecord("shadow", subcell.base, old, None, old,
                             bucket.pointer, detail="bucket pointer")
        self.records.append(record)
        self._obs_injected.inc()
        return record

    # -- update-stream faults --------------------------------------------------

    def mangle_trace(self, trace: Sequence[UpdateOp],
                     duplicate_rate: float = 0.05,
                     reorder_rate: float = 0.05) -> List[UpdateOp]:
        """A plausibly-broken BGP feed: duplicates and local reorders.

        Duplicates re-send a record immediately (a retransmit); reorders
        swap adjacent records (a multi-path feed).  Both must be absorbed
        by the update engine without corrupting state — duplicates are
        idempotent by §4.4 semantics, and adjacent swaps only change
        which of two orders the same final table is reached by.
        """
        mangled: List[UpdateOp] = []
        for op in trace:
            mangled.append(op)
            if self.rng.random() < duplicate_rate:
                mangled.append(op)
        index = 1
        while index < len(mangled):
            if self.rng.random() < reorder_rate:
                a, b = mangled[index - 1], mangled[index]
                # Swapping two ops on the same prefix changes semantics
                # (announce-then-withdraw vs withdraw-then-announce);
                # only reorder across distinct prefixes.
                if a.prefix != b.prefix:
                    mangled[index - 1], mangled[index] = b, a
                    index += 1
            index += 1
        return mangled

    def malformed_updates(self, count: int = 1) -> List[dict]:
        """Raw malformed records (as a broken deserialiser would emit them).

        Returned as kwargs dicts: constructing the ``UpdateOp`` raises
        ``MalformedUpdateError``, which is itself the behavior under test.
        """
        from ..prefix.prefix import Prefix

        prefix = Prefix.from_string("192.0.2.0/24")
        shapes = [
            {"op": "modify", "prefix": prefix, "next_hop": 1},
            {"op": ANNOUNCE, "prefix": prefix, "next_hop": -2},
            {"op": ANNOUNCE, "prefix": prefix, "next_hop": 1.25},
            {"op": ANNOUNCE, "prefix": "192.0.2.0/24", "next_hop": 1},
            {"op": WITHDRAW, "prefix": prefix, "next_hop": True},
        ]
        return [self.rng.choice(shapes) for _ in range(count)]

    # -- setup-path faults ----------------------------------------------------

    @contextmanager
    def force_setup_failure(self, times: int = 1,
                            mode: str = "raise") -> Iterator[List[int]]:
        """Make the next ``times`` Index Table setups fail (peel stall).

        Patches the shared ``XorIndexTable`` base — covering both the
        Bloomier and fuse backends — so ``setup`` fails and ``try_insert``
        denies singletons, forcing an incremental announce onto the
        rebuild path where the rebuild then fails: the §3.2
        non-convergence event.  Yields a single-element list counting the
        failures actually delivered.

        ``mode="raise"`` short-circuits ``setup`` with a
        ``BloomierSetupError`` before it runs.  ``mode="stall"`` instead
        makes the *peel step* stall, so the real setup loop executes —
        rehashing through its full ``max_rehash`` budget before giving up.
        Use "stall" to exercise the rehash/rollback machinery itself
        (e.g. the hash-state restore regression in
        tests/test_bloomier_regressions.py); "raise" is cheaper and
        sufficient when only the *caller's* failure handling is under
        test.
        """
        if mode not in ("raise", "stall"):
            raise ValueError(f"unknown setup-failure mode {mode!r}")
        remaining = [times]
        delivered = [0]
        original_setup = XorIndexTable.setup
        original_try = XorIndexTable.try_insert
        original_peel = _backend_module.peel

        def failing_setup(self, items):
            if remaining[0] > 0:
                remaining[0] -= 1
                delivered[0] += 1
                raise BloomierSetupError(
                    "injected: peel failed to converge"
                )
            return original_setup(self, items)

        def stalling_peel(neighborhoods, num_slots, max_spill=0):
            raise PeelStallError(len(neighborhoods))

        def stalling_setup(self, items):
            if remaining[0] <= 0:
                return original_setup(self, items)
            # Stall the peel inside the real setup loop: every rehash
            # attempt runs and fails, so setup exhausts its budget and
            # raises through its own failure path.
            _backend_module.peel = stalling_peel
            try:
                return original_setup(self, items)
            except BloomierSetupError:
                remaining[0] -= 1
                delivered[0] += 1
                raise
            finally:
                _backend_module.peel = original_peel

        def failing_try_insert(self, key, value):
            if remaining[0] > 0:
                return None  # deny the singleton; force a rebuild
            return original_try(self, key, value)

        XorIndexTable.setup = (
            failing_setup if mode == "raise" else stalling_setup
        )
        XorIndexTable.try_insert = failing_try_insert
        try:
            yield delivered
        finally:
            XorIndexTable.setup = original_setup
            XorIndexTable.try_insert = original_try
            _backend_module.peel = original_peel

    @contextmanager
    def force_spillover_overflow(self, engine: ChiselLPM) -> Iterator[None]:
        """Clamp every spillover TCAM to its current fill.

        The next key that needs to spill — e.g. during a forced rebuild —
        raises ``SpilloverCapacityError``, the event §4.1 sizes the TCAM
        to make rare but which a router must survive when it happens.
        """
        clamped = []
        for subcell in engine.subcells:
            tcam = subcell.index.spillover
            clamped.append((tcam, tcam.capacity))
            tcam.capacity = len(tcam)
        try:
            yield
        finally:
            for tcam, capacity in clamped:
                tcam.capacity = capacity
