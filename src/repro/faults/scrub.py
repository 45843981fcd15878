"""Table scrubbing: detect and repair soft errors from the §4.4 shadow.

The Network Processor keeps software shadow copies of everything it
programs into the hardware tables (§4.4).  That redundancy is what makes
soft errors *repairable*: a scrub pass walks every live hardware word,
derives the expected value from the shadow, and rewrites words that
disagree.  Detection is syndrome-first — each word's SECDED-style
syndrome (:mod:`repro.faults.checksum`) is compared before the raw words
— with raw equality as the backstop; a word whose syndrome matches but
whose value differs is counted as an ``ecc_escape`` (a ≥3-bit corruption
the code cannot see, which raw comparison still catches here because the
scrubber, unlike real ECC hardware, holds the full expected word).

Live words per table kind:

* **filter / dirty** — one word per populated bucket pointer.
* **bitvector / regionptr / result** — per *non-dirty* bucket only: a
  dirty bucket's lookup short-circuits at the dirty bit, so its
  downstream words are dead and any corruption there is harmless
  ("absorbed", not a fault).
* **index** — the Bloomier D-words cannot be checked per word (each is
  an XOR share across many keys), so the scrubber decode-checks every
  encoded key against the group's shadow function.  Any single-bit flip
  in a slot with refcount > 0 breaks at least one key's decode — by
  definition of the refcount — so detection of single-bit faults in live
  index words is exact.  Repair is a group rebuild from the shadow.
* **spillover** — the TCAM's (key -> value) entries are compared
  against the per-group spill bookkeeping.

Repairs count toward ``words_written`` like any other hardware write,
and mark the sub-cell for a replan: a serving image recompiles the
repaired sub-cell rather than trusting a word-by-word patch of it.

Uncorrectable states — shadow bookkeeping itself inconsistent (bucket
pointer out of range, duplicate pointers, a repair rebuild that fails to
converge) — are reported rather than repaired; the serving layer reacts
by degrading to the exact software path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..bloomier.filter import BloomierSetupError
from ..bloomier.spillover import SpilloverCapacityError
from ..core.chisel import ChiselLPM
from ..core.subcell import ChiselSubCell
from ..obs import get_registry
from .checksum import syndrome

#: Table kinds a scrub classifies faults under.
SCRUB_KINDS = (
    "index", "filter", "dirty", "bitvector", "regionptr", "result",
    "spillover",
)


@dataclass
class ScrubReport:
    """What one scrub pass saw and did."""

    words_scanned: int = 0
    detected: Dict[str, int] = field(default_factory=dict)
    repaired: Dict[str, int] = field(default_factory=dict)
    ecc_escapes: int = 0
    uncorrectable: List[str] = field(default_factory=list)

    @property
    def total_detected(self) -> int:
        return sum(self.detected.values())

    @property
    def total_repaired(self) -> int:
        return sum(self.repaired.values())

    @property
    def clean(self) -> bool:
        """No faults found at all."""
        return self.total_detected == 0 and not self.uncorrectable

    @property
    def healthy(self) -> bool:
        """Everything found was repaired; the engine is trustworthy."""
        return not self.uncorrectable

    def merge(self, other: "ScrubReport") -> None:
        self.words_scanned += other.words_scanned
        for kind, count in other.detected.items():
            self.detected[kind] = self.detected.get(kind, 0) + count
        for kind, count in other.repaired.items():
            self.repaired[kind] = self.repaired.get(kind, 0) + count
        self.ecc_escapes += other.ecc_escapes
        self.uncorrectable.extend(other.uncorrectable)

    def to_dict(self) -> Dict[str, object]:
        return {
            "words_scanned": self.words_scanned,
            "detected": dict(self.detected),
            "repaired": dict(self.repaired),
            "ecc_escapes": self.ecc_escapes,
            "uncorrectable": list(self.uncorrectable),
            "healthy": self.healthy,
        }

    # -- recording helpers ----------------------------------------------------

    def _found(self, kind: str) -> None:
        self.detected[kind] = self.detected.get(kind, 0) + 1

    def _fixed(self, kind: str) -> None:
        self.repaired[kind] = self.repaired.get(kind, 0) + 1


def _check_word(report: ScrubReport, kind: str, expected, actual) -> bool:
    """Compare one live word; returns True when it needs repair."""
    report.words_scanned += 1
    if expected == actual:
        return False
    report._found(kind)
    if syndrome(expected) == syndrome(actual):
        # The SECDED code alone would have missed this (>= 3 bits flipped
        # just so); the full-word shadow comparison is what caught it.
        report.ecc_escapes += 1
    return True


def scrub_subcell(subcell: ChiselSubCell) -> ScrubReport:
    """Scrub one sub-cell's hardware tables against its shadow state."""
    report = ScrubReport()

    # -- shadow sanity: is the bookkeeping itself trustworthy? ---------------
    seen_pointers: Dict[int, int] = {}
    for value, bucket in subcell.buckets.items():
        pointer = bucket.pointer
        if not 0 <= pointer < subcell.capacity:
            report.uncorrectable.append(
                f"subcell/{subcell.base}: bucket {value:#x} shadow pointer "
                f"{pointer} out of range [0, {subcell.capacity})"
            )
            continue
        if pointer in seen_pointers:
            report.uncorrectable.append(
                f"subcell/{subcell.base}: buckets {seen_pointers[pointer]:#x} "
                f"and {value:#x} share pointer {pointer}"
            )
            continue
        seen_pointers[pointer] = value
    if report.uncorrectable:
        # The shadow cannot vouch for the hardware; scrubbing against it
        # would "repair" toward garbage.  Bail to degraded mode instead.
        return report

    # -- filter / dirty / bitvector / regionptr / result ---------------------
    for value, bucket in subcell.buckets.items():
        pointer = bucket.pointer
        if _check_word(report, "filter", value, subcell.filter_table[pointer]):
            subcell.filter_table[pointer] = value
            subcell.wrote(1, replan="scrub")
            report._fixed("filter")
        if _check_word(report, "dirty", bucket.dirty,
                       subcell.dirty_table[pointer]):
            subcell.dirty_table[pointer] = bucket.dirty
            subcell.wrote(1, replan="scrub")
            report._fixed("dirty")
        if bucket.dirty:
            continue  # bv/regionptr/result are dead words behind the dirty bit
        vector, region = bucket.paint()
        if _check_word(report, "bitvector", vector, subcell.bv_table[pointer]):
            subcell.bv_table[pointer] = vector
            subcell.wrote(1, replan="scrub")
            report._fixed("bitvector")
        shadow_ptr = subcell.region_ptr_shadow[pointer]
        if _check_word(report, "regionptr", shadow_ptr,
                       subcell.region_ptr[pointer]):
            subcell.region_ptr[pointer] = shadow_ptr
            subcell.wrote(1, replan="scrub")
            report._fixed("regionptr")
        arena = subcell.result.arena
        if shadow_ptr + len(region) > len(arena):
            report.uncorrectable.append(
                f"subcell/{subcell.base}: bucket {value:#x} region "
                f"[{shadow_ptr}, {shadow_ptr + len(region)}) exceeds arena "
                f"size {len(arena)}"
            )
            continue
        for rank, hop in enumerate(region):
            if _check_word(report, "result", hop, arena[shadow_ptr + rank]):
                arena[shadow_ptr + rank] = hop
                subcell.wrote(1, replan="scrub")
                report._fixed("result")

    # -- index: every bucket's key must be encoded with its pointer ----------
    for value, bucket in subcell.buckets.items():
        if subcell.index.get(value) == bucket.pointer:
            continue
        report._found("index")
        try:
            if value in subcell.index:
                subcell.index.delete(value)
            subcell.index.insert(value, bucket.pointer)
        except (BloomierSetupError, SpilloverCapacityError) as error:
            report.uncorrectable.append(
                f"subcell/{subcell.base}: cannot re-encode bucket "
                f"{value:#x} -> {bucket.pointer}: {error}"
            )
            continue
        subcell.wrote(1, replan="scrub")
        report._fixed("index")

    # -- index: decode-check every encoded key, rebuild corrupt groups -------
    for group_index, group in enumerate(subcell.index.groups):
        report.words_scanned += sum(
            1 for refcount in group._refcount if refcount > 0
        )
        corrupt = any(
            group.lookup(key) != value
            for key, value in group.shadow.items()
        )
        if not corrupt:
            continue
        report._found("index")
        try:
            subcell.index._rebuild_group(group_index)
        except (BloomierSetupError, SpilloverCapacityError) as error:
            report.uncorrectable.append(
                f"subcell/{subcell.base}: index group {group_index} repair "
                f"rebuild failed: {error}"
            )
            continue
        subcell.wrote(group.num_slots, replan="scrub")
        report._fixed("index")

    # -- spillover TCAM vs the per-group spill bookkeeping --------------------
    expected_spill: Dict[int, int] = {}
    for spilled in subcell.index._spilled_by_group:
        expected_spill.update(spilled)
    entries = subcell.index.spillover._entries
    report.words_scanned += max(len(entries), len(expected_spill))
    if entries != expected_spill:
        report._found("spillover")
        if len(expected_spill) > subcell.index.spillover.capacity:
            report.uncorrectable.append(
                f"subcell/{subcell.base}: spill shadow holds "
                f"{len(expected_spill)} keys, TCAM capacity is "
                f"{subcell.index.spillover.capacity}"
            )
        else:
            entries.clear()
            entries.update(expected_spill)
            subcell.wrote(1, replan="scrub")
            report._fixed("spillover")

    return report


def scrub_engine(engine: ChiselLPM) -> ScrubReport:
    """Scrub every sub-cell; merged report, obs counters updated."""
    registry = get_registry()
    report = ScrubReport()
    for subcell in engine.subcells:
        report.merge(scrub_subcell(subcell))
    registry.counter(
        "scrub_runs_total", "scrub passes over an engine's tables").inc()
    detected = registry.counter(
        "scrub_faults_detected_total", "hardware words found corrupted")
    repaired = registry.counter(
        "scrub_faults_repaired_total", "corrupted words rewritten from shadow")
    if report.total_detected:
        detected.inc(report.total_detected)
    if report.total_repaired:
        repaired.inc(report.total_repaired)
    if report.uncorrectable:
        registry.counter(
            "scrub_uncorrectable_total",
            "scrubs that found shadow/hardware state beyond repair",
        ).inc(len(report.uncorrectable))
        registry.trace(
            "scrub_uncorrectable", issues=len(report.uncorrectable),
        )
    return report
