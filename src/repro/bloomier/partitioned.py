"""d-way logically partitioned Bloomier filter (paper §4.4.2).

A log2(d)-bit hash checksum of each key selects one of d groups; each group
is an independent Bloomier filter over ~n/d keys.  When an insert finds no
singleton slot, only that key's group is re-setup — bounding the worst-case
update time to 1/d of a monolithic rebuild.  (In hardware the Index Table
stays one memory and the checksum supplies the top address bits; here each
group owning its own slot range models the same thing.)

The checksum can supply the top bits of the *value* too.  With ``run``
set, values are group-local pointers: group g owns the values
``[g·run, (g+1)·run)``, its words (and its keys' TCAM entries) hold
``value − g·run`` in ``value_bits`` bits, and a lookup adds ``g·run``
back.  A pointer then only has to tell apart one group's ``run`` rows.

The spillover TCAM (§4.1) is composed in at this level: keys any group
setup fails to encode are parked there, and lookups consult it first.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import (
    Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from ..hashing.tabulation import TabulationHash
from ..obs import get_registry
from .backend import IndexBackend, SetupReport, make_backend
from .spillover import SpilloverTCAM


class InsertOutcome(Enum):
    """How an insert was applied (feeds the Fig. 14 update categories)."""

    SINGLETON = "singleton"
    REBUILD = "rebuild"
    # Re-insert of a still-spilled key: its TCAM entry is refreshed in
    # place — one word written, no Index Table traffic.
    SPILL_REFRESH = "spill_refresh"


class Inserted(NamedTuple):
    """What one :meth:`PartitionedBloomierFilter.insert` did."""

    outcome: InsertOutcome
    #: ``(group, slot)`` of the Index-Table word a singleton insert
    #: wrote, when that word is all it wrote; None when a TCAM entry
    #: changed too or the group was re-setup.
    word: Optional[Tuple[int, int]] = None


class PartitionedBloomierFilter:
    """Collision-free key -> value store with bounded-time dynamic inserts."""

    __slots__ = (
        "capacity", "key_bits", "value_bits", "partitions", "run", "backend",
        "_rng", "_groups", "_checksum", "spillover", "_spilled_by_group",
        "rebuild_count", "singleton_insert_count", "_obs_spill_hits",
    )

    def __init__(
        self,
        capacity: int,
        key_bits: int,
        value_bits: int,
        num_hashes: int = 3,
        slots_per_key: int = 3,
        partitions: int = 16,
        rng: Optional[random.Random] = None,
        group_slack: float = 1.5,
        spill_capacity: int = 32,
        max_rehash: int = 8,
        backend: str = "bloomier",
        run: int = 0,
    ):
        if partitions < 1:
            raise ValueError("need at least one partition")
        self.capacity = capacity
        self.key_bits = key_bits
        self.value_bits = value_bits
        self.partitions = partitions
        self.run = run  # 0: values are stored as given
        self.backend = backend
        self._rng = rng or random.Random(0)
        group_capacity = max(
            num_hashes, int(capacity / partitions * group_slack) + 1
        )
        self._groups: List[IndexBackend] = [
            make_backend(
                backend,
                capacity=group_capacity,
                key_bits=key_bits,
                value_bits=value_bits,
                num_hashes=num_hashes,
                slots_per_key=slots_per_key,
                rng=self._rng,
                max_rehash=max_rehash,
                max_spill=spill_capacity,
            )
            for _ in range(partitions)
        ]
        self._checksum = TabulationHash(key_bits, 30, self._rng)
        self.spillover = SpilloverTCAM(spill_capacity, key_bits, value_bits)
        self._spilled_by_group: List[Dict[int, int]] = [
            {} for _ in range(partitions)
        ]
        self.rebuild_count = 0
        self.singleton_insert_count = 0
        self._obs_spill_hits = get_registry().counter(
            "chisel_index_spill_hits_total",
            "lookups answered by the spillover TCAM ahead of the Index Table",
        )

    # -- partitioning --------------------------------------------------------

    def group_of(self, key: int) -> int:
        """The log2(d)-bit hash-checksum partition of ``key``."""
        return self._checksum(key) % self.partitions

    def _local(self, group_index: int, value: int) -> int:
        """``value`` as group ``group_index`` encodes it."""
        if not self.run:
            return value
        local = value - group_index * self.run
        if not 0 <= local < self.run:
            raise ValueError(
                f"pointer {value} lies outside group {group_index}'s run "
                f"[{group_index * self.run}, {(group_index + 1) * self.run})")
        return local

    # -- bulk setup ------------------------------------------------------------

    def setup(self, items: Mapping[int, int]) -> SetupReport:
        """Encode all items from scratch; spilled keys go to the TCAM."""
        buckets: List[Dict[int, int]] = [{} for _ in range(self.partitions)]
        for key, value in items.items():
            group_index = self.group_of(key)
            buckets[group_index][key] = self._local(group_index, value)
        return self.setup_groups(buckets)

    def setup_groups(self, buckets: Sequence[Mapping[int, int]]
                     ) -> SetupReport:
        """:meth:`setup` from items already split by checksum group, each
        value as its group encodes it (group-local when ``run`` is set).
        The report's spilled values are as the TCAM holds them."""
        self.spillover.clear()
        encoded = 0
        rehashes = 0
        all_spilled: Dict[int, int] = {}
        for group_index, group in enumerate(self._groups):
            report = group.setup(buckets[group_index])
            encoded += report.encoded
            rehashes += report.rehash_attempts
            self._spilled_by_group[group_index] = dict(report.spilled)
            all_spilled.update(report.spilled)
        for key, value in all_spilled.items():
            self.spillover.insert(key, value)
        return SetupReport(encoded, all_spilled, rehashes)

    # -- lookup -----------------------------------------------------------------

    def lookup(self, key: int) -> int:
        """The encoded value; garbage for non-members (caller filters)."""
        group_index = self.group_of(key)
        value = self.spillover.lookup(key)
        if value is None:
            value = self._groups[group_index].lookup(key)
        else:
            self._obs_spill_hits.inc()
        return value + group_index * self.run

    # -- dynamic updates -----------------------------------------------------------

    def insert(self, key: int, value: int) -> Inserted:
        """Add a key: O(1) when a singleton exists, else rebuild its group."""
        group_index = self.group_of(key)
        value = self._local(group_index, value)
        group = self._groups[group_index]
        spilled = self._spilled_by_group[group_index]
        if key in spilled:
            # The key already lives in the spillover TCAM, which lookup()
            # consults *before* the Index Table — so encoding the new
            # value into the group would leave the stale TCAM value
            # shadowing it forever.  Prefer moving it into the table
            # (freeing a TCAM word); otherwise refresh the entry in place.
            if group.try_insert(key, value) is not None:
                del spilled[key]
                self.spillover.remove(key)
                self.singleton_insert_count += 1
                return Inserted(InsertOutcome.SINGLETON)
            spilled[key] = value
            self.spillover.insert(key, value)
            return Inserted(InsertOutcome.SPILL_REFRESH)
        slot = group.try_insert(key, value)
        if slot is not None:
            self.singleton_insert_count += 1
            return Inserted(InsertOutcome.SINGLETON, (group_index, slot))
        self._rebuild_group(group_index, extra={key: value})
        return Inserted(InsertOutcome.REBUILD)

    def delete(self, key: int) -> None:
        """Physically remove a key (the purge path; dirty-marking is the
        fast path and lives in the Chisel update engine, §4.4.1)."""
        group_index = self.group_of(key)
        spilled = self._spilled_by_group[group_index]
        if key in spilled:
            del spilled[key]
            self.spillover.remove(key)
            return
        if key not in self._groups[group_index].shadow:
            raise KeyError(f"key {key:#x} not present")
        self._rebuild_group(group_index, drop=key)

    def drain_spillover(self) -> int:
        """Try to move spilled keys back into the Index Table.

        Deletions and rebuilds free slots over time, so a key that had to
        spill at setup may later have a singleton.  Run opportunistically
        at maintenance points (the same moments §4.4.1 purges dirty
        entries) to keep the tiny TCAM empty for future emergencies.
        Returns the number of keys drained; never triggers a rebuild.
        """
        drained = 0
        for group_index, spilled in enumerate(self._spilled_by_group):
            for key in list(spilled):
                value = spilled[key]
                if self._groups[group_index].try_insert(key, value) is not None:
                    del spilled[key]
                    self.spillover.remove(key)
                    drained += 1
        return drained

    def delete_many(self, keys) -> int:
        """Batch removal with at most one rebuild per affected group.

        Used by the periodic dirty-entry purge (§4.4.1): many dirty keys can
        accumulate between re-setups, and rebuilding a group once per key
        would be wasted work.
        """
        by_group: Dict[int, List[int]] = {}
        for key in keys:
            by_group.setdefault(self.group_of(key), []).append(key)
        rebuilds = 0
        for group_index, group_keys in by_group.items():
            spilled = self._spilled_by_group[group_index]
            shadow_drops = []
            for key in group_keys:
                if key in spilled:
                    del spilled[key]
                    self.spillover.remove(key)
                elif key in self._groups[group_index].shadow:
                    shadow_drops.append(key)
                else:
                    raise KeyError(f"key {key:#x} not present")
            if shadow_drops:
                self._rebuild_group(group_index, drop_many=shadow_drops)
                rebuilds += 1
        return rebuilds

    def _rebuild_group(self, group_index: int, extra: Optional[Dict[int, int]] = None,
                       drop: Optional[int] = None,
                       drop_many: Optional[List[int]] = None) -> None:
        group = self._groups[group_index]
        items = dict(group.shadow)
        items.update(self._spilled_by_group[group_index])
        if extra:
            items.update(extra)
        if drop is not None:
            items.pop(drop, None)
        for key in drop_many or ():
            items.pop(key, None)
        old_spilled = self._spilled_by_group[group_index]
        report = group.setup(items)
        for stale in old_spilled:
            if stale not in report.spilled:
                self.spillover.remove(stale)
        for key, value in report.spilled.items():
            self.spillover.insert(key, value)
        self._spilled_by_group[group_index] = dict(report.spilled)
        self.rebuild_count += 1

    # -- introspection ---------------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        group_index = self.group_of(key)
        return (
            key in self._groups[group_index].shadow
            or key in self._spilled_by_group[group_index]
        )

    def __len__(self) -> int:
        return sum(len(g) for g in self._groups) + len(self.spillover)

    def get(self, key: int) -> Optional[int]:
        """Shadow-copy read: the true value, or None if absent."""
        group_index = self.group_of(key)
        value = self._groups[group_index].shadow.get(key)
        if value is None:
            value = self._spilled_by_group[group_index].get(key)
        return None if value is None else value + group_index * self.run

    @property
    def total_slots(self) -> int:
        """Total Index Table depth across all groups."""
        return sum(group.num_slots for group in self._groups)

    @property
    def groups(self) -> List[IndexBackend]:
        """The d per-group filters (read-only use)."""
        return self._groups

    @property
    def checksum_hash(self) -> TabulationHash:
        """The log2(d)-bit partitioning hash (read-only use)."""
        return self._checksum

    def hardware_words(self) -> List[List[int]]:
        """The raw Index Table contents per group (what hardware holds).

        Returns references for snapshotting; callers copy before mutating.
        """
        return [group._table for group in self._groups]

    def storage_bits(self) -> int:
        """Hardware bits: all group Index Tables plus the spillover TCAM."""
        return (
            sum(group.storage_bits() for group in self._groups)
            + self.spillover.storage_bits()
        )
