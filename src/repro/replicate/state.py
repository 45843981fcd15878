"""Replicated routing state: the route ledger and canonical rebuilds.

Replication converges at two levels (docs/REPLICATION.md):

* **Stream level** — a replica that applies the writer's journaled
  records *in order* from the same initial table holds a live engine
  byte-identical to the writer's (engine updates are deterministic;
  ``tests/test_recovery_property.py`` is the standing proof).  This is
  the kill/partition catch-up path.
* **Ledger level** — IBLT reconciliation repairs a replica whose route
  *set* diverged (lost update, phantom route).  Fix-ups restore the set
  but not the update *history*, and a Chisel image is history-dependent
  (dirty parking, arena layout).  Byte-identity is therefore checked on
  the **canonical image**: both sides rebuild a fresh engine from their
  sorted route set through one deterministic §3.2 setup and diff those.
  Same set ⇒ same canonical image, and the live engines answer
  identically because they hold the same routes.

``RouteLedger`` is the set being reconciled: ``(prefix → (gateway,
interface, last_seq))`` with an incrementally-maintained XOR-of-
fingerprints checksum, so writer and replica can compare whole-set
state in O(1) per anti-entropy round and fold the set into an IBLT in
O(n) only when they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.chisel import paused_collector
from ..core.config import ChiselConfig
from ..core.image import HardwareImage
from ..prefix.prefix import Prefix
from ..prefix.table import RoutingTable
from ..router.fib import ForwardingEngine, _default_naming, name_next_hops
from ..router.nexthop import NextHopInfo
from ..store.records import ANNOUNCE, LogRecord
from .iblt import fingerprint

RouteKey = Tuple[int, int]  # (prefix_value, prefix_length)


@dataclass(frozen=True)
class RouteEntry:
    """One replicated route: where it points and when it last changed."""

    value: int
    length: int
    gateway: str
    interface: str
    seq: int

    @property
    def key(self) -> RouteKey:
        return (self.value, self.length)

    @property
    def fingerprint(self) -> int:
        return fingerprint(
            (self.value, self.length, self.gateway, self.interface, self.seq)
        )


class RouteLedger:
    """The reconcilable route set with an incremental XOR checksum.

    The checksum is the XOR of every entry's 64-bit fingerprint —
    order-independent, updated in O(1) per mutation, and equal between
    two ledgers iff (modulo 2^-64 collisions) their entry sets are
    equal.  Fingerprints include ``seq``, so a route that flapped back
    to the same next hop still reads as changed until both sides agree
    on *when* it last changed — exactly what the IBLT needs to ship the
    freshest record.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._routes: Dict[RouteKey, RouteEntry] = {}
        self._fingerprints: Dict[RouteKey, int] = {}
        self._checksum = 0

    @classmethod
    @paused_collector()
    def from_table(cls, table: RoutingTable) -> "RouteLedger":
        """The seq-0 ledger both sides derive from the initial table.

        Uses the same ``_default_naming`` the engine bootstrap uses, so
        ledger and FIB agree on every (gateway, interface) from birth.
        """
        ledger = cls(table.width)
        names = name_next_hops(table, _default_naming)
        for prefix, next_hop in table:
            info = names[next_hop]
            ledger.set_entry(RouteEntry(prefix.value, prefix.length,
                                        info.gateway, info.interface, 0))
        return ledger

    # -- mutation ------------------------------------------------------------

    def set_entry(self, entry: RouteEntry) -> None:
        key = entry.key
        old = self._fingerprints.get(key)
        if old is not None:
            self._checksum ^= old
        new = entry.fingerprint
        self._routes[key] = entry
        self._fingerprints[key] = new
        self._checksum ^= new

    def remove(self, key: RouteKey) -> Optional[RouteEntry]:
        entry = self._routes.pop(key, None)
        if entry is not None:
            self._checksum ^= self._fingerprints.pop(key)
        return entry

    def apply(self, record: LogRecord) -> None:
        """Fold one journaled update into the set."""
        if record.op == ANNOUNCE:
            self.set_entry(RouteEntry(
                record.prefix_value, record.prefix_length,
                record.gateway, record.interface, record.seq))
        else:
            self.remove((record.prefix_value, record.prefix_length))

    # -- introspection -------------------------------------------------------

    @property
    def checksum(self) -> int:
        return self._checksum

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(self._routes.values())

    def get(self, key: RouteKey) -> Optional[RouteEntry]:
        return self._routes.get(key)

    def fingerprints(self) -> Dict[int, RouteEntry]:
        """fingerprint → entry, for resolving peeled IBLT keys."""
        return {
            self._fingerprints[key]: entry
            for key, entry in self._routes.items()
        }

    def sorted_entries(self) -> List[RouteEntry]:
        return sorted(self._routes.values(),
                      key=lambda entry: (entry.length, entry.value))

    def to_records(self) -> List[LogRecord]:
        """The full set as ANNOUNCE records (sorted; for RESYNC)."""
        return [
            LogRecord(op=ANNOUNCE, seq=entry.seq, prefix_value=entry.value,
                      prefix_length=entry.length, gateway=entry.gateway,
                      interface=entry.interface)
            for entry in self.sorted_entries()
        ]

    @classmethod
    def from_records(cls, width: int,
                     records: List[LogRecord]) -> "RouteLedger":
        ledger = cls(width)
        for record in records:
            ledger.apply(record)
        return ledger


# -- deterministic rebuilds --------------------------------------------------


def bootstrap(table: RoutingTable,
              config: ChiselConfig) -> Tuple[ForwardingEngine, RouteLedger]:
    """The shared cold-start: identical (FIB, ledger) on every node.

    Writer and replicas all start here from the same table and config;
    from then on, identical record sequences keep the live engines
    byte-identical (stream-level convergence).
    """
    fib = ForwardingEngine.from_table(table, config=config)
    return fib, RouteLedger.from_table(table)


def canonical_fib(ledger: RouteLedger,
                  config: ChiselConfig) -> ForwardingEngine:
    """Rebuild a fresh engine from the ledger, deterministically.

    Routes are loaded in sorted (length, value) order with next-hop ids
    interned by first appearance of (gateway, interface) — two ledgers
    with equal entry sets produce word-identical engines regardless of
    the update histories that led there.
    """
    table = RoutingTable(width=ledger.width)
    ids: Dict[Tuple[str, str], int] = {}
    naming: Dict[int, NextHopInfo] = {}
    for entry in ledger.sorted_entries():
        pair = (entry.gateway, entry.interface)
        next_hop = ids.get(pair)
        if next_hop is None:
            next_hop = len(ids) + 1
            ids[pair] = next_hop
            naming[next_hop] = NextHopInfo(entry.gateway, entry.interface)
        table.add(Prefix(entry.value, entry.length, ledger.width), next_hop)
    return ForwardingEngine.from_table(
        table, config=config, naming=lambda next_hop: naming[next_hop])


def canonical_image(ledger: RouteLedger,
                    config: ChiselConfig) -> HardwareImage:
    """The byte-identity witness: snapshot of the canonical rebuild."""
    return HardwareImage.snapshot(canonical_fib(ledger, config).engine)
