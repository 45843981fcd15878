"""The Chisel LPM engine: parallel sub-cells plus a priority encoder (§4.3.2).

``ChiselLPM.build`` plans the collapse intervals, groups the routing table
into per-sub-cell buckets, and constructs one ``ChiselSubCell`` per
interval.  A lookup collapses the key for every sub-cell and takes the
match from the longest collapsed length — correct because intervals are
disjoint and ordered, and each sub-cell already resolves LPM internally
through its bit-vectors.  (Hardware searches sub-cells in parallel; the
simulator scans longest-first, which is decision-equivalent.)
"""

from __future__ import annotations

import gc
import pickle
import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..obs import DEPTH_BUCKETS, get_registry
from ..prefix.prefix import Prefix
from ..prefix.table import NextHop, RoutingTable
from .collapse import CollapsePlan, group_by_subcell, plan_for_table
from .config import ChiselConfig
from .events import CapacityError, UpdateKind
from .subcell import ChiselSubCell


@contextmanager
def paused_collector() -> Iterator[None]:
    """Pause the cyclic garbage collector around a bulk build.

    A build allocates hundreds of thousands of long-lived objects and
    frees almost none, so the collections those allocations trigger walk
    an ever larger heap and find nothing to free.  The prior state comes
    back on exit, error included, so a caller's ``gc.disable()`` holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class ChiselLPM:
    """A complete Chisel forwarding engine for one address family."""

    def __init__(self, config: ChiselConfig, plan: CollapsePlan,
                 subcells: List[ChiselSubCell]):
        self.config = config
        self.plan = plan
        # Longest collapsed length first: the priority encoder's order.
        self.subcells = sorted(subcells, key=lambda cell: cell.base, reverse=True)
        self._by_base = {cell.base: cell for cell in self.subcells}
        registry = get_registry()
        self._obs_probes = registry.counter(
            "chisel_subcell_probes_total",
            "sub-cell datapath probes (Index+Filter reads) across lookups",
        )
        self._obs_hits = registry.counter(
            "chisel_lookups_hit_total", "scalar lookups that matched a route")
        self._obs_misses = registry.counter(
            "chisel_lookups_miss_total", "scalar lookups with no matching route")
        self._obs_depth = registry.histogram(
            "chisel_encoder_depth", DEPTH_BUCKETS,
            "sub-cells scanned before the priority encoder resolved a lookup",
        )
        self._obs_update_kinds = {
            kind: registry.counter(
                f"chisel_updates_{kind.value}_total",
                f"updates applied as {kind.name} (Fig. 14 category)",
            )
            for kind in UpdateKind
        }
        self._obs_noops = registry.counter(
            "chisel_updates_noops_total", "withdraws of absent prefixes")
        self._obs_grows = registry.counter(
            "chisel_subcell_grows_total", "capacity-growth sub-cell rebuilds")
        self._obs_purged = registry.counter(
            "chisel_purged_buckets_total", "dirty buckets physically purged")
        self._obs_drained = registry.counter(
            "chisel_spillover_drained_total",
            "spilled keys drained back into the Index Table",
        )
        self._obs_reclaimed = registry.counter(
            "chisel_result_entries_reclaimed_total",
            "Result-Table arena entries reclaimed by compaction",
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    @paused_collector()
    def build(cls, table: RoutingTable,
              config: Optional[ChiselConfig] = None) -> "ChiselLPM":
        """Plan, collapse, and set up every sub-cell for a routing table."""
        config = config or ChiselConfig(width=table.width)
        if config.width != table.width:
            raise ValueError(
                f"config width {config.width} != table width {table.width}"
            )
        rng = random.Random(config.seed)
        plan = plan_for_table(table, config.stride, config.coverage)
        grouped = group_by_subcell(table, plan)
        subcells = []
        for cell_plan in plan:
            buckets = grouped[cell_plan]
            # Deterministic sizing (§4.3.2): provision for the sub-cell's
            # *original* route count, not the (smaller) collapsed count —
            # collapsing is then pure headroom, which is what keeps
            # incremental singleton inserts succeeding (§4.4.2).
            originals = sum(len(bucket) for bucket in buckets.values())
            capacity = max(16, int(originals * config.capacity_slack) + 1)
            subcell = ChiselSubCell(cell_plan, capacity, config, rng)
            subcell.build(buckets)
            subcells.append(subcell)
        return cls(config, plan, subcells)

    # -- lookup ------------------------------------------------------------------

    def lookup(self, key: int) -> Optional[NextHop]:
        """Longest-prefix-match next hop for a fully specified key."""
        depth = 0
        for subcell in self.subcells:
            depth += 1
            next_hop = subcell.lookup(key)
            if next_hop is not None:
                self._obs_probes.inc(depth)
                self._obs_depth.observe(depth)
                self._obs_hits.inc()
                return next_hop
        self._obs_probes.inc(depth)
        self._obs_depth.observe(depth)
        self._obs_misses.inc()
        return None

    def lookup_with_subcell(self, key: int) -> Tuple[Optional[NextHop], Optional[int]]:
        """(next hop, matching sub-cell base) — exposes the priority encode."""
        for subcell in self.subcells:
            next_hop = subcell.lookup(key)
            if next_hop is not None:
                return next_hop, subcell.base
        return None, None

    # -- updates (§4.4) -------------------------------------------------------------

    def subcell_for(self, prefix: Prefix) -> ChiselSubCell:
        """The sub-cell whose stride interval contains this prefix length."""
        return self._by_base[self.plan.interval_for(prefix.length).base]

    def announce(self, prefix: Prefix, next_hop: NextHop) -> UpdateKind:
        subcell = self.subcell_for(prefix)
        try:
            kind = subcell.announce(prefix, next_hop)
        except CapacityError:
            # Out of provisioned Filter/Bit-vector entries: rebuild the
            # sub-cell at twice the size.  This is a (rare) full re-setup
            # of one sub-cell, so it is classified as RESETUP.
            grown = self._grow_subcell(subcell)
            grown.announce(prefix, next_hop)
            kind = UpdateKind.RESETUP
        self._obs_update_kinds[kind].inc()
        return kind

    def _grow_subcell(self, subcell: ChiselSubCell) -> ChiselSubCell:
        """Replace a full sub-cell with a double-capacity rebuild."""
        plan = self.plan.interval_for(subcell.base)
        rng = random.Random(self.config.seed ^ (subcell.capacity << 8))
        grown = ChiselSubCell(plan, subcell.capacity * 2, self.config, rng)
        grown.build(subcell.export_buckets())
        # The rebuild rewrites every hardware word of the sub-cell (new
        # Index Table seeds, new pointers, new bit-vectors), so advance
        # the update counter by the rebuild cost on top of the old
        # total.  Copying it verbatim would leave ``engine.words_written()``
        # unchanged and hide the rebuild from ``BatchLookup.stale``.
        grown.words_written = subcell.words_written
        grown.wrote(grown.capacity, replan="grow")
        position = self.subcells.index(subcell)
        self.subcells[position] = grown
        self._by_base[grown.base] = grown
        self._obs_grows.inc()
        get_registry().trace(
            "subcell_grow", base=grown.base,
            old_capacity=subcell.capacity, new_capacity=grown.capacity,
        )
        return grown

    def withdraw(self, prefix: Prefix) -> Optional[UpdateKind]:
        kind = self.subcell_for(prefix).withdraw(prefix)
        if kind is None:
            self._obs_noops.inc()
        else:
            self._obs_update_kinds[kind].inc()
        return kind

    def purge_dirty(self) -> int:
        """Maintenance purge of dirty entries across all sub-cells (§4.4.1)."""
        purged = sum(subcell.purge_dirty() for subcell in self.subcells)
        self._obs_purged.inc(purged)
        return purged

    def maintenance(self) -> Dict[str, int]:
        """The quiet-period housekeeping pass (§4.4.1's 'next resetup'):
        purge dirty entries, drain the spillover TCAMs back into the Index
        Tables, and defragment the Result Table regions."""
        purged = self.purge_dirty()
        drained = 0
        for subcell in self.subcells:
            moved = subcell.index.drain_spillover()
            if moved:
                # Each drained key is one Index-Table singleton encode
                # plus a TCAM invalidate; the TCAM change has no word
                # names, so serving images recompile the sub-cell.
                subcell.wrote(moved, replan="drain")
            drained += moved
        reclaimed = sum(
            subcell.compact_result_table() for subcell in self.subcells
        )
        self._obs_drained.inc(drained)
        self._obs_reclaimed.inc(reclaimed)
        get_registry().trace(
            "maintenance", purged=purged, spillover_drained=drained,
            result_entries_reclaimed=reclaimed,
        )
        return {
            "purged": purged,
            "spillover_drained": drained,
            "result_entries_reclaimed": reclaimed,
        }

    def scrub(self):
        """Walk every live hardware word against the §4.4 shadow copies,
        repairing soft errors in place; returns a ``ScrubReport``.  Lives
        in :mod:`repro.faults.scrub`; imported lazily (faults -> core)."""
        from ..faults.scrub import scrub_engine

        return scrub_engine(self)

    def get_route(self, prefix: Prefix) -> Optional[NextHop]:
        """The stored next hop for an exact prefix (None if absent)."""
        return self.subcell_for(prefix).get_route(prefix)

    def dirty_count(self) -> int:
        """Collapsed prefixes currently parked dirty (withdrawn, retained)."""
        return sum(subcell.dirty_count() for subcell in self.subcells)

    # -- introspection ------------------------------------------------------------------

    def __len__(self) -> int:
        """Original (pre-collapse) routes currently stored."""
        return sum(cell.original_route_count() for cell in self.subcells)

    def collapsed_key_count(self) -> int:
        return sum(len(cell) for cell in self.subcells)

    def words_written(self) -> int:
        """Hardware words pushed by incremental updates so far."""
        return sum(cell.words_written for cell in self.subcells)

    def storage_bits(self) -> Dict[str, int]:
        """As-built on-chip bits by component, summed over sub-cells."""
        totals = {"index": 0, "filter": 0, "bitvector": 0}
        for subcell in self.subcells:
            for component, bits in subcell.storage_bits().items():
                totals[component] += bits
        return totals

    def total_storage_bits(self) -> int:
        return sum(self.storage_bits().values())

    # -- persistence ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Checkpoint the whole engine — shadow copies and hardware state —
        so a line card can restart without re-running setup.  (A pickle;
        each sub-cell writes its shadow buckets as flat columns, see
        ``ChiselSubCell.__getstate__``.)"""
        with open(path, "wb") as handle:
            pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "ChiselLPM":
        with open(path, "rb") as handle, paused_collector():
            engine = pickle.load(handle)
        if not isinstance(engine, cls):
            raise TypeError(f"{path} does not contain a {cls.__name__}")
        return engine

    def iter_routes(self) -> Iterator[Tuple[Prefix, NextHop]]:
        """Reconstruct all stored original routes from the shadow copies."""
        for subcell in self.subcells:
            for collapsed_value, bucket in subcell.buckets.items():
                for (length, suffix), next_hop in bucket.originals.items():
                    value = (collapsed_value << (length - subcell.base)) | suffix
                    yield Prefix(value, length, self.config.width), next_hop
