"""A deployable forwarding engine: Chisel + next-hop management + the
§4.4 maintenance policy.

``ForwardingEngine`` is the API a line card would expose: routes carry
real (gateway, interface) next hops; withdrawn routes park dirty and are
purged once the dirty population crosses a threshold (the paper's "next
resetup" moment); every mutation flows through the same shadow-then-
hardware path the paper describes, with the pushed-word counter exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from ..core.chisel import ChiselLPM
from ..core.config import ChiselConfig
from ..core.events import UpdateKind
from ..core.updates import UpdateStats
from ..obs import get_registry
from ..prefix.prefix import Prefix, key_from_string
from ..prefix.table import NextHop, RoutingTable
from .nexthop import NextHopInfo, NextHopTable

#: Purge-cadence bounds: updates applied between consecutive dirty purges.
_PURGE_INTERVAL_BUCKETS = (16, 64, 256, 1024, 4096, 16384, 65536)

PrefixLike = Union[Prefix, str]
KeyLike = Union[int, str]


def _default_naming(next_hop: NextHop) -> NextHopInfo:
    """A deterministic (gateway, interface) for a synthetic next-hop id."""
    return NextHopInfo(
        f"10.{(next_hop >> 8) & 0xFF}.{next_hop & 0xFF}.1",
        f"eth{next_hop % 8}",
    )


def name_next_hops(
    table: RoutingTable, naming: Callable[[NextHop], NextHopInfo]
) -> Dict[NextHop, NextHopInfo]:
    """``naming`` of each distinct next-hop id in ``table``, called once
    per id in order of first appearance; routes then share the names."""
    return {next_hop: naming(next_hop)
            for next_hop in dict.fromkeys(hop for _prefix, hop in table)}


@dataclass
class FibStats:
    routes: int
    next_hops: int
    dirty_entries: int
    purges_run: int
    words_pushed: int


class ForwardingEngine:
    """Route table + Chisel datapath + next-hop interning + maintenance."""

    def __init__(self, width: int = 32, config: Optional[ChiselConfig] = None,
                 dirty_purge_threshold: int = 4096):
        self.config = config or ChiselConfig(width=width)
        if self.config.width != width:
            raise ValueError("config width disagrees with engine width")
        self.width = width
        self.next_hops = NextHopTable(self.config.next_hop_bits)
        self._engine = ChiselLPM.build(RoutingTable(width=width), self.config)  # guarded-by: external
        self.dirty_purge_threshold = dirty_purge_threshold
        self.update_stats = UpdateStats()  # guarded-by: external
        self.purges_run = 0  # guarded-by: external
        self._updates_since_purge = 0  # guarded-by: external
        registry = get_registry()
        self._obs_acquires = registry.counter(
            "fib_nexthop_acquires_total", "next-hop references taken")
        self._obs_releases = registry.counter(
            "fib_nexthop_releases_total", "next-hop references dropped")
        self._obs_occupancy = registry.gauge(
            "fib_nexthop_occupancy", "distinct interned next hops held")
        self._obs_purges = registry.counter(
            "fib_purges_total", "dirty-threshold maintenance purges run")
        self._obs_purge_interval = registry.histogram(
            "fib_purge_interval_updates", _PURGE_INTERVAL_BUCKETS,
            "updates applied between consecutive maintenance purges",
        )

    @classmethod
    def from_table(
        cls,
        table: RoutingTable,
        config: Optional[ChiselConfig] = None,
        dirty_purge_threshold: int = 4096,
        naming: Optional[Callable[[NextHop], NextHopInfo]] = None,
    ) -> "ForwardingEngine":
        """Bulk-load a routing table through one engine setup.

        Interns each table next hop as a real (gateway, interface) via
        ``naming`` and builds the Chisel tables in a single §3.2 setup —
        the line-card cold-start path, orders of magnitude faster than
        announcing a large table route by route.
        """
        fib = cls(width=table.width, config=config,
                  dirty_purge_threshold=dirty_purge_threshold)
        names = name_next_hops(table, naming or _default_naming)
        mapped = RoutingTable(width=table.width, name=table.name)
        for prefix, next_hop in table:
            mapped.add(prefix, fib.next_hops.acquire(names[next_hop]))
            fib._obs_acquires.inc()
        fib._engine = ChiselLPM.build(mapped, fib.config)
        fib._obs_occupancy.set(len(fib.next_hops))
        return fib

    # -- route programming ---------------------------------------------------

    def announce(self, prefix: PrefixLike, gateway: str,
                 interface: str) -> UpdateKind:
        """Install or update a route."""
        prefix = self._prefix(prefix)
        new_id = self.next_hops.acquire(NextHopInfo(gateway, interface))
        self._obs_acquires.inc()
        old_id = self._engine.get_route(prefix)
        kind = self._engine.announce(prefix, new_id)
        if old_id is not None:
            # The route already held a reference — either to a different
            # next hop (replaced above) or to the *same* id when a route
            # flaps back to an identical (gateway, interface).  Both cases
            # must drop exactly one reference; releasing only on
            # ``old_id != new_id`` leaked the duplicate acquire and pinned
            # the id forever.
            self.next_hops.release(old_id)
            self._obs_releases.inc()
        self.update_stats.record(kind)
        self._updates_since_purge += 1
        self._obs_occupancy.set(len(self.next_hops))
        return kind

    def withdraw(self, prefix: PrefixLike) -> Optional[UpdateKind]:
        """Remove a route; releases its next-hop reference."""
        prefix = self._prefix(prefix)
        old_id = self._engine.get_route(prefix)
        kind = self._engine.withdraw(prefix)
        if kind is not None and old_id is not None:
            self.next_hops.release(old_id)
            self._obs_releases.inc()
        self.update_stats.record(kind)
        self._updates_since_purge += 1
        self._obs_occupancy.set(len(self.next_hops))
        self._maybe_purge()
        return kind

    def _maybe_purge(self) -> None:
        if self._engine.dirty_count() >= self.dirty_purge_threshold:
            self._engine.maintenance()
            self.purges_run += 1
            self._obs_purges.inc()
            self._obs_purge_interval.observe(self._updates_since_purge)
            self._updates_since_purge = 0
            get_registry().trace(
                "fib_purge", routes=len(self._engine),
                next_hops=len(self.next_hops), purges_run=self.purges_run,
            )

    # -- forwarding --------------------------------------------------------------

    def forward(self, destination: KeyLike) -> Optional[NextHopInfo]:
        """The forwarding decision for a destination address."""
        next_hop_id = self._engine.lookup(self._key(destination))
        if next_hop_id is None:
            return None
        return self.next_hops.resolve(next_hop_id)

    def route_for(self, prefix: PrefixLike) -> Optional[NextHopInfo]:
        """Exact-prefix read (control-plane style), not longest match."""
        next_hop_id = self._engine.get_route(self._prefix(prefix))
        if next_hop_id is None:
            return None
        return self.next_hops.resolve(next_hop_id)

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._engine)

    def stats(self) -> FibStats:
        return FibStats(
            routes=len(self._engine),
            next_hops=len(self.next_hops),
            dirty_entries=self._engine.dirty_count(),
            purges_run=self.purges_run,
            words_pushed=self._engine.words_written(),
        )

    @property
    def engine(self) -> ChiselLPM:
        """The underlying Chisel engine (for storage/simulation hooks)."""
        return self._engine

    def replace_engine(self, engine: ChiselLPM) -> ChiselLPM:
        """Swap in a rebuilt engine (degraded-mode recovery); returns the
        old one.  The new engine must already hold this FIB's next-hop
        ids — references are carried over, not re-acquired."""
        if engine.config.width != self.width:
            raise ValueError("replacement engine width disagrees with FIB")
        previous = self._engine
        self._engine = engine
        return previous

    # -- helpers ------------------------------------------------------------------------

    def _prefix(self, prefix: PrefixLike) -> Prefix:
        if isinstance(prefix, Prefix):
            return prefix
        return Prefix.from_string(prefix)

    def _key(self, destination: KeyLike) -> int:
        if isinstance(destination, int):
            return destination
        return key_from_string(destination)
