"""Analytic storage models for Chisel and its baselines (paper §4.2, §6).

All models count *on-chip* bits; the Result (next-hop) Table is off-chip
commodity memory in every scheme and excluded, exactly as in the paper
("In all our storage space results, we do not report the space required to
store the next-hop information").

Widths follow the FPGA prototype (§7), which pins the model down exactly:
for 16K prefixes per sub-cell it used Index segments of 14-bit words
(= log2 16K pointer), 32-bit Filter entries (the key), and 30-bit
Bit-vector entries (2**4 vector + 14-bit region pointer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

MBIT = 1_000_000

# The Index Table is logically partitioned into d groups (§4.4.2), so the
# encoded pointer p(t) only needs to address one group's Filter/Bit-vector
# bank: its width is log2(group capacity), not log2(n).  The built engine
# encodes exactly that: each sub-cell group owns a run of ceil(capacity/d)
# bucket rows and its Index words hold pointers local to the run
# (``ChiselSubCell.run``).  4096-entry groups match the paper's per-prefix
# storage (§4.1's ~8 bytes for IPv4).
DEFAULT_PARTITION_CAPACITY = 4096

# Next-hop identifiers (pointers into the off-chip next-hop value table).
NEXT_HOP_POINTER_BITS = 16


def pointer_bits(count: int) -> int:
    """Bits to address ``count`` distinct locations (>= 1).

    ``(count - 1).bit_length()`` is exact integer math; the former
    ``ceil(log2(count))`` under-counts once counts approach 2**49 because
    ``log2`` rounds through a double (CHZ003).
    """
    return max(1, (count - 1).bit_length()) if count > 1 else 1


def _table_pointer_bits(entries: int, partition_capacity: Optional[int]) -> int:
    if partition_capacity is None:
        return pointer_bits(entries)
    return pointer_bits(min(entries, partition_capacity))


@dataclass(frozen=True)
class StorageBreakdown:
    """Bits per component of one scheme, split on-chip vs off-chip."""

    scheme: str
    on_chip: Dict[str, int]
    off_chip: Dict[str, int]

    @property
    def on_chip_bits(self) -> int:
        return sum(self.on_chip.values())

    @property
    def off_chip_bits(self) -> int:
        return sum(self.off_chip.values())

    @property
    def total_bits(self) -> int:
        return self.on_chip_bits + self.off_chip_bits

    @property
    def total_mbits(self) -> float:
        return self.total_bits / MBIT

    def bytes_per_prefix(self, num_prefixes: int) -> float:
        return self.total_bits / 8 / num_prefixes if num_prefixes else 0.0


# --------------------------------------------------------------------------
# Chisel variants
# --------------------------------------------------------------------------

def chisel_storage(
    num_prefixes: int,
    key_width: int,
    stride: int = 4,
    slots_per_key: int = 3,
    num_collapsed: Optional[int] = None,
    wildcards: bool = True,
    partition_capacity: Optional[int] = DEFAULT_PARTITION_CAPACITY,
) -> StorageBreakdown:
    """Chisel on-chip storage (Fig. 6 tables) for n prefixes.

    ``num_collapsed=None`` gives the deterministic worst case (every prefix
    distinct after collapsing: depth n, the §4.3.2 sizing); passing the
    measured collapsed-key count gives the average case.  With
    ``wildcards=False`` the Bit-vector Table is dropped (the Fig. 8
    no-wildcard comparison against EBF).  ``partition_capacity=None``
    models a monolithic (unpartitioned) Index Table with full-width
    pointers.
    """
    entries = num_prefixes if num_collapsed is None else num_collapsed
    ptr = _table_pointer_bits(entries, partition_capacity)
    on_chip = {
        "index": slots_per_key * entries * ptr,
        "filter": entries * (key_width + 1),  # key + dirty bit (§4.4.1)
    }
    if wildcards:
        on_chip["bitvector"] = entries * ((1 << stride) + ptr)
    return StorageBreakdown("chisel", on_chip, {})


def naive_bloomier_storage(
    num_prefixes: int,
    key_width: int,
    num_hashes: int = 3,
    slots_per_key: int = 3,
) -> StorageBreakdown:
    """The naïve false-positive fix (§4.2): keys live beside f(t) at all
    m = slots_per_key * n Result Table locations, and the Index Table only
    needs log2(k)-bit hτ values.  Chisel's pointer indirection beats this by
    ~20% (IPv4) and ~49% (IPv6) — asserted in tests.
    """
    slots = slots_per_key * num_prefixes
    on_chip = {
        "index": slots * pointer_bits(num_hashes),
        "filter": slots * key_width,
    }
    return StorageBreakdown("naive-bloomier", on_chip, {})


def chisel_cpe_storage(
    num_expanded: int,
    key_width: int,
    slots_per_key: int = 3,
    partition_capacity: Optional[int] = DEFAULT_PARTITION_CAPACITY,
) -> StorageBreakdown:
    """Chisel with CPE instead of prefix collapsing (§6.2): the Index and
    Filter tables inflate to the expanded prefix count and the Bit-vector
    Table disappears."""
    ptr = _table_pointer_bits(num_expanded, partition_capacity)
    on_chip = {
        "index": slots_per_key * num_expanded * ptr,
        "filter": num_expanded * (key_width + 1),
    }
    return StorageBreakdown("chisel+cpe", on_chip, {})


# --------------------------------------------------------------------------
# EBF (Song et al. 2005) and TCAM
# --------------------------------------------------------------------------

def ebf_storage(
    num_keys: int,
    key_width: int,
    table_factor: float = 12.0,
    counter_bits: int = 4,
) -> StorageBreakdown:
    """Extended Bloom Filter storage (§2, §6.1).

    ``table_factor`` buckets per key: 12 gives collision odds of about 1 in
    2.5M ("EBF"), 6 about 1 in 1000 ("poor-EBF"), per the paper's quoted
    numbers.  First level: on-chip counting Bloom filter, one counter per
    bucket.  Second level: off-chip hash table whose buckets hold the key
    plus a next-hop pointer.
    """
    buckets = int(table_factor * num_keys)
    on_chip = {"counting_bloom": buckets * counter_bits}
    off_chip = {
        "hash_table": buckets * (key_width + NEXT_HOP_POINTER_BITS)
    }
    return StorageBreakdown("ebf", on_chip, off_chip)


def poor_ebf_storage(num_keys: int, key_width: int) -> StorageBreakdown:
    breakdown = ebf_storage(num_keys, key_width, table_factor=6.0)
    return StorageBreakdown("poor-ebf", breakdown.on_chip, breakdown.off_chip)


def tcam_storage(num_prefixes: int, slot_width: int = 36) -> StorageBreakdown:
    """TCAM bits: one ternary slot per prefix (36-bit slots are the
    commodity granularity; an 18 Mb part holds 512K of them)."""
    return StorageBreakdown(
        "tcam", {"tcam_array": num_prefixes * slot_width}, {}
    )


# --------------------------------------------------------------------------
# Derived claims (used by tests and benches)
# --------------------------------------------------------------------------

def indirection_saving(num_prefixes: int, key_width: int,
                       slots_per_key: int = 3, num_hashes: int = 3) -> float:
    """Fractional saving of pointer indirection over the naïve layout (§4.2).

    Both sides use a monolithic Index Table (full log2(n) pointers), which
    is the setting of the paper's 20% / 49% IPv4 / IPv6 claim.
    """
    ours = chisel_storage(
        num_prefixes, key_width, wildcards=False, slots_per_key=slots_per_key,
        partition_capacity=None,
    ).total_bits
    naive = naive_bloomier_storage(
        num_prefixes, key_width, num_hashes, slots_per_key
    ).total_bits
    return 1.0 - ours / naive
