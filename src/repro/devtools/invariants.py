"""Structural invariant verifier for built Chisel engine images.

The linter (:mod:`repro.devtools.lint`) guards the *source*; this module
audits a *built* :class:`~repro.core.chisel.ChiselLPM` — the actual table
contents — against the paper's correctness guarantees.  An encoding bug
anywhere in the Bloomier Index Table, the bit-vector buckets, or the
region allocator silently degrades the engine into a lossy hash table;
these checks catch that mechanically.

Invariant catalog (codes mirror the lint rules' style):

* **INV100** engine wiring: sub-cells are priority-ordered (longest
  collapsed base first) and the base->sub-cell map is consistent (§4.3.2).
* **INV101** collision-freeness: every programmed collapsed key XOR-decodes
  through the Index Table to exactly one Filter Table slot holding that
  same key (its group-local word plus the group's first row), each
  pointer lies in its key's group run, pointers are unique, dirty flags
  agree with the shadow state, and the per-group free lists are disjoint
  and exhaustive (§4.2, §4.4.2).
* **INV201** bit-vector semantics: each non-dirty bucket's stored vector
  equals the recomputed expansion coverage of its original routes, every
  set bit's Result Table entry is the next hop of the *longest* covering
  original (the LPM winner), and regions fit their provisioned blocks
  (§4.3.1–4.3.2).
* **INV301** region allocator accounting: live bucket regions and free-list
  blocks tile the arena exactly — no overlap (double ownership), no gap
  (leak), power-of-two block sizes, and live-entry counters agree (§4.4.2).
* **INV401** Bloomier image: per group, the shadow function XOR-decodes
  exactly, refcounts match recomputed slot incidence, the spillover TCAM
  mirrors the per-group spill maps, and the encoded key set replays to a
  valid peel — a τ-ordering with no 2-core — under the current hash
  matrices (§3.2, §4.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..core.bitvector import Bucket

from ..bloomier.peeling import PeelStallError, peel
from ..core.chisel import ChiselLPM
from ..core.subcell import ChiselSubCell


def _popcount(value: int) -> int:
    return bin(value).count("1")


def _size_class(size: int) -> int:
    return 1 << (size - 1).bit_length() if size >= 1 else 0


@dataclass(frozen=True)
class InvariantViolation:
    """One broken structural guarantee in a built image."""

    code: str
    message: str
    subcell: Optional[int] = None  # the owning sub-cell's base, if any

    def format(self) -> str:
        where = f"sub-cell /{self.subcell}: " if self.subcell is not None else ""
        return f"[{self.code}] {where}{self.message}"


@dataclass
class InvariantReport:
    """All violations found plus counters of what was audited."""

    violations: List[InvariantViolation] = field(default_factory=list)
    checked: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> List[str]:
        return sorted({violation.code for violation in self.violations})

    def count(self, key: str) -> int:
        return self.checked.get(key, 0)

    def bump(self, key: str, amount: int = 1) -> None:
        self.checked[key] = self.checked.get(key, 0) + amount

    def add(self, code: str, message: str, subcell: Optional[int] = None) -> None:
        self.violations.append(InvariantViolation(code, message, subcell))

    def summary(self) -> str:
        audited = ", ".join(
            f"{key}={value}" for key, value in sorted(self.checked.items())
        )
        if self.ok:
            return f"invariants OK ({audited})"
        return (
            f"{len(self.violations)} invariant violation(s) "
            f"[{', '.join(self.codes())}] ({audited})"
        )

    def format(self) -> str:
        lines = [violation.format() for violation in self.violations]
        lines.append(self.summary())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# INV100 — engine wiring
# ---------------------------------------------------------------------------

def check_engine_wiring(engine: ChiselLPM, report: InvariantReport) -> None:
    bases = [subcell.base for subcell in engine.subcells]
    if bases != sorted(bases, reverse=True):
        report.add("INV100",
                   f"sub-cells not in priority-encoder order: bases {bases}")
    for subcell in engine.subcells:
        mapped = engine._by_base.get(subcell.base)
        if mapped is not subcell:
            report.add("INV100",
                       f"base map entry for /{subcell.base} does not point "
                       f"at its sub-cell", subcell.base)
    report.bump("subcells", len(engine.subcells))


# ---------------------------------------------------------------------------
# INV101 — Index/Filter collision-freeness (§4.2)
# ---------------------------------------------------------------------------

def check_collision_free(subcell: ChiselSubCell, report: InvariantReport) -> None:
    base = subcell.base
    owners: Dict[int, int] = {}
    for value, bucket in subcell.buckets.items():
        pointer = bucket.pointer
        if not 0 <= pointer < subcell.capacity:
            report.add("INV101",
                       f"bucket {value:#x} pointer {pointer} outside table "
                       f"depth {subcell.capacity}", base)
            continue
        group = subcell.index.group_of(value)
        if pointer // subcell.run != group:
            report.add("INV101",
                       f"bucket {value:#x} pointer {pointer} outside its "
                       f"group {group}'s run of {subcell.run} rows", base)
        if pointer in owners:
            report.add("INV101",
                       f"Filter slot {pointer} owned by both {owners[pointer]:#x} "
                       f"and {value:#x} (collision)", base)
        owners[pointer] = value
        if subcell.filter_table[pointer] != value:
            report.add("INV101",
                       f"Filter Table[{pointer}] holds "
                       f"{subcell.filter_table[pointer]!r}, expected key "
                       f"{value:#x}", base)
        if subcell.dirty_table[pointer] != bucket.dirty:
            report.add("INV101",
                       f"dirty bit at slot {pointer} is "
                       f"{subcell.dirty_table[pointer]}, shadow says "
                       f"{bucket.dirty}", base)
        decoded = subcell.index.lookup(value)
        if decoded != pointer:
            report.add("INV101",
                       f"Index Table decodes key {value:#x} to slot {decoded}, "
                       f"expected {pointer} — collision-freeness broken", base)
        if subcell.index.get(value) != pointer:
            report.add("INV101",
                       f"Bloomier shadow for key {value:#x} disagrees with "
                       f"assigned slot {pointer}", base)
        report.bump("keys_decoded")

    free_lists = subcell._free_pointers
    if len(free_lists) != subcell.index.partitions:
        report.add("INV101",
                   f"{len(free_lists)} free lists for "
                   f"{subcell.index.partitions} groups", base)
    free_set = set()
    for group, free in enumerate(free_lists):
        strays = [row for row in free if row // subcell.run != group]
        if strays:
            report.add("INV101",
                       f"group {group}'s free list holds rows "
                       f"{sorted(strays)[:8]} outside its run", base)
        if len(set(free)) != len(free) or free_set & set(free):
            report.add("INV101",
                       f"group {group}'s free list repeats a row", base)
        free_set.update(free)
    taken = set(owners)
    double = free_set & taken
    if double:
        report.add("INV101",
                   f"slots {sorted(double)} both free and bucket-owned", base)
    missing = set(range(subcell.capacity)) - free_set - taken
    if missing:
        report.add("INV101",
                   f"{len(missing)} Filter slots leaked (neither free nor "
                   f"owned): {sorted(missing)[:8]}", base)
    for pointer in free_set - taken:
        if subcell.filter_table[pointer] is not None:
            report.add("INV101",
                       f"free slot {pointer} still holds key "
                       f"{subcell.filter_table[pointer]:#x}", base)


# ---------------------------------------------------------------------------
# INV201 — bit-vector buckets and LPM winners (§4.3.1–4.3.2)
# ---------------------------------------------------------------------------

def _expected_vector(bucket: "Bucket") -> int:
    """Recompute expansion coverage from first principles (not via Bucket)."""
    span = bucket.span
    vector = 0
    for expansion in range(1 << span):
        if _winner(bucket, expansion) is not None:
            vector |= 1 << expansion
    return vector


def _winner(bucket: "Bucket", expansion: int) -> Optional[Tuple[int, int]]:
    """The longest original covering ``expansion``, recomputed brute-force."""
    best: Optional[Tuple[int, int]] = None
    for (length, suffix) in bucket.originals:
        rel = length - bucket.base
        if (expansion >> (bucket.span - rel)) == suffix:
            if best is None or length > best[0]:
                best = (length, suffix)
    return best


def check_bitvectors(subcell: ChiselSubCell, report: InvariantReport) -> None:
    base, span = subcell.base, subcell.span
    arena_len = len(subcell.result.arena)
    for value, bucket in subcell.buckets.items():
        for (length, _suffix) in bucket.originals:
            if not base <= length <= base + span:
                report.add("INV201",
                           f"bucket {value:#x} holds original /{length} "
                           f"outside interval [{base}, {base + span}]", base)
        if bucket.dirty:
            # Withdrawn bucket: hardware rows are masked by the dirty bit
            # and may be stale by design (§4.4.1) — skip content checks.
            continue
        pointer = bucket.pointer
        stored = subcell.bv_table[pointer]
        expected = _expected_vector(bucket)
        if stored != expected:
            diff = stored ^ expected
            orphaned = diff & stored
            dropped = diff & expected
            detail = []
            if orphaned:
                detail.append(f"orphaned bits {orphaned:#x}")
            if dropped:
                detail.append(f"missing bits {dropped:#x}")
            report.add("INV201",
                       f"bucket {value:#x} bit-vector {stored:#x} != "
                       f"recomputed {expected:#x} ({', '.join(detail)})", base)
        block = subcell.region_block[pointer]
        needed = _popcount(stored)
        if needed > block:
            report.add("INV201",
                       f"bucket {value:#x} has {needed} set bits but only a "
                       f"{block}-entry region block", base)
        if subcell.region_ptr[pointer] + block > arena_len:
            report.add("INV201",
                       f"bucket {value:#x} region [{subcell.region_ptr[pointer]}, "
                       f"+{block}) runs past the arena ({arena_len})", base)
            continue
        for expansion in range(1 << span):
            if not (stored >> expansion) & 1:
                continue
            winner = _winner(bucket, expansion)
            if winner is None:
                continue  # already reported as an orphaned bit
            rank = _popcount(stored & ((1 << (expansion + 1)) - 1))
            if rank > block:
                continue  # already reported as a region overflow
            hop = subcell.result.read(subcell.region_ptr[pointer] + rank - 1)
            expected_hop = bucket.originals[winner]
            if hop != expected_hop:
                report.add("INV201",
                           f"bucket {value:#x} expansion {expansion}: Result "
                           f"Table holds hop {hop}, LPM winner /{winner[0]} "
                           f"says {expected_hop}", base)
            report.bump("expansions_checked")
        report.bump("buckets_checked")


# ---------------------------------------------------------------------------
# INV301 — Result Table region accounting (§4.4.2)
# ---------------------------------------------------------------------------

def check_allocator(subcell: ChiselSubCell, report: InvariantReport) -> None:
    base = subcell.base
    allocator = subcell.result
    intervals: List[Tuple[int, int, str]] = []
    live_total = 0
    for value, bucket in subcell.buckets.items():
        pointer = bucket.pointer
        start = subcell.region_ptr[pointer]
        block = subcell.region_block[pointer]
        if block < 1 or block != _size_class(block):
            report.add("INV301",
                       f"bucket {value:#x} region block size {block} is not "
                       f"a positive power of two", base)
            continue
        intervals.append((start, block, f"bucket {value:#x}"))
        live_total += block
    for size, pointers in allocator._free.items():
        for start in pointers:
            intervals.append((start, size, "free list"))

    arena_len = len(allocator.arena)
    intervals.sort()
    previous_end = 0
    previous_owner = "arena start"
    covered = 0
    for start, length, owner in intervals:
        if start < 0 or start + length > arena_len:
            report.add("INV301",
                       f"{owner} block [{start}, +{length}) outside the "
                       f"arena ({arena_len} entries)", base)
            continue
        if start < previous_end:
            report.add("INV301",
                       f"{owner} block [{start}, +{length}) overlaps "
                       f"{previous_owner} (doubly-owned Result slots)", base)
        previous_end = max(previous_end, start + length)
        previous_owner = owner
        covered += length
    if covered < arena_len:
        report.add("INV301",
                   f"{arena_len - covered} Result Table entries leaked "
                   f"(neither bucket-owned nor on the free list)", base)
    stats = allocator.stats()
    if stats.live_entries != live_total:
        report.add("INV301",
                   f"allocator live-entry counter {stats.live_entries} != "
                   f"sum of bucket blocks {live_total}", base)
    report.bump("regions_checked", len(intervals))


# ---------------------------------------------------------------------------
# INV401 — Bloomier encoding and τ-ordering replay (§3.2)
# ---------------------------------------------------------------------------

def check_bloomier(subcell: ChiselSubCell, report: InvariantReport) -> None:
    base = subcell.base
    index = subcell.index
    spilled_union: Dict[int, int] = {}
    for group_index, spilled in enumerate(index._spilled_by_group):
        for key, value in spilled.items():
            if key in spilled_union:
                report.add("INV401",
                           f"key {key:#x} spilled from two groups", base)
            spilled_union[key] = value
    tcam_contents = dict(index.spillover)
    if tcam_contents != spilled_union:
        extra = set(tcam_contents) - set(spilled_union)
        missing = set(spilled_union) - set(tcam_contents)
        report.add("INV401",
                   f"spillover TCAM out of sync: {len(extra)} unaccounted, "
                   f"{len(missing)} missing entries", base)

    for group_index, group in enumerate(index.groups):
        shadow = group.shadow
        if len(shadow) > group.capacity:
            report.add("INV401",
                       f"group {group_index} holds {len(shadow)} keys over "
                       f"capacity {group.capacity}", base)
        neighborhoods = []
        counts = [0] * group.num_slots
        for key, value in shadow.items():
            if index.group_of(key) != group_index:
                report.add("INV401",
                           f"key {key:#x} encoded in group {group_index} but "
                           f"hashes to group {index.group_of(key)}", base)
            if key in spilled_union:
                report.add("INV401",
                           f"key {key:#x} both encoded and spilled", base)
            slots = group.neighborhood(key)
            neighborhoods.append(slots)
            for slot in slots:
                counts[slot] += 1
            decoded = group.lookup(key)
            if decoded != value:
                report.add("INV401",
                           f"group {group_index} XOR-decodes key {key:#x} to "
                           f"{decoded}, shadow says {value} (flipped Index "
                           f"Table word?)", base)
            report.bump("bloomier_keys")
        if counts != group._refcount:
            drift = sum(1 for a, b in zip(counts, group._refcount) if a != b)
            report.add("INV401",
                       f"group {group_index} refcounts drift from recomputed "
                       f"slot incidence at {drift} slot(s)", base)
        try:
            peel(neighborhoods, group.num_slots, max_spill=0)
        except PeelStallError as error:
            report.add("INV401",
                       f"group {group_index} τ-ordering does not replay: "
                       f"{error.remaining} encoded keys stuck in a 2-core — "
                       f"no valid encoding order exists", base)
        report.bump("groups_checked")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def verify_subcell(subcell: ChiselSubCell, report: InvariantReport) -> None:
    check_collision_free(subcell, report)
    check_bitvectors(subcell, report)
    check_allocator(subcell, report)
    check_bloomier(subcell, report)


def verify_engine(engine: ChiselLPM) -> InvariantReport:
    """Audit every structural guarantee of a built engine image."""
    report = InvariantReport()
    check_engine_wiring(engine, report)
    for subcell in engine.subcells:
        verify_subcell(subcell, report)
    return report
