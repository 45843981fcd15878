"""The harness core every correctness check shares.

Four harnesses enforce the never-silently-wrong contract: chaos
(:mod:`repro.faults.chaos`), crash (:mod:`repro.store.crash`),
replicate (:mod:`repro.replicate.harness`) and the serve/shard bench
checks.  They drive the same kind of update trace and judge answers the
same way, so those pieces live here once:

* :func:`next_hop_for` — the next hop an announce of a trace op installs;
* :func:`apply_update` — one trace op applied to a router, a FIB or the
  replication coordinator;
* :class:`Oracle` — an exact :class:`BinaryTrie` holding the table plus
  every applied update, which also records the prefixes that changed;
* :func:`keys_under` — probe keys, half uniform and half under given
  prefixes, so a check lands on the routes the run changed;
* :func:`image_differences` / :func:`image_matches_compile` — the
  router's served image against a fresh compile of the live engine;
* :class:`HarnessReport` — gate ``failures``, ``ok`` and ``to_dict``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

from .baselines.binary_trie import BinaryTrie
from .core.updates import ANNOUNCE, UpdateOp
from .prefix.prefix import Prefix
from .prefix.table import RoutingTable
from .router.fib import _default_naming
from .router.nexthop import NextHopInfo

Answer = Optional[NextHopInfo]


class UpdateTarget(Protocol):
    """Anything that takes announces and withdraws: router, FIB, writer."""

    def announce(self, prefix: Prefix, gateway: str,
                 interface: str) -> object: ...

    def withdraw(self, prefix: Prefix) -> object: ...


def next_hop_for(op: UpdateOp) -> NextHopInfo:
    """The resolved next hop an announce of ``op`` installs."""
    return NextHopInfo(f"10.8.{op.next_hop % 256}.1", f"eth{op.next_hop % 8}")


def apply_update(target: UpdateTarget, op: UpdateOp) -> None:
    """Apply one trace op, naming an announce by :func:`next_hop_for`."""
    if op.op == ANNOUNCE:
        info = next_hop_for(op)
        target.announce(op.prefix, info.gateway, info.interface)
    else:
        target.withdraw(op.prefix)


class Oracle:
    """The exact answer for every key, independent of the datapath.

    A :class:`BinaryTrie` over the table under the names the bootstrap
    gives its routes (``_default_naming``), plus every update passed to
    :meth:`apply` under :func:`next_hop_for`.  Answers are resolved next
    hops, so they compare with any router whatever ids it interned.
    """

    def __init__(self, table: RoutingTable) -> None:
        # Holds NextHopInfo values where BinaryTrie is typed for int ids.
        self._trie: Any = BinaryTrie(table.width)
        self._changed: Dict[Prefix, None] = {}
        for prefix, next_hop in table:
            self._trie.insert(prefix, _default_naming(next_hop))

    @property
    def changed(self) -> List[Prefix]:
        """Every prefix an applied update touched, in first-touch order."""
        return list(self._changed)

    def apply(self, op: UpdateOp) -> None:
        if op.op == ANNOUNCE:
            self._trie.insert(op.prefix, next_hop_for(op))
        else:
            self._trie.remove(op.prefix)
        self._changed[op.prefix] = None

    def lookup(self, key: int) -> Answer:
        return self._trie.lookup(int(key))

    def mismatches(self, keys: Sequence[int], served: Sequence[Answer],
                   ) -> List[Tuple[int, Answer, Answer]]:
        """``(key, served, expected)`` for every answer the trie disputes."""
        wrong = []
        for key, got in zip(keys, served):
            want = self.lookup(key)
            if got != want:
                wrong.append((int(key), got, want))
        return wrong


def keys_under(rng: random.Random, width: int, count: int,
               prefixes: Sequence[Prefix]) -> List[int]:
    """``count`` keys: half uniform, then half under ``prefixes``.

    Uniform keys almost never fall under the few prefixes an update
    trace touches, so a check on them alone cannot see a wrongly
    installed route.  With no prefixes every key is uniform.
    """
    keys = [rng.getrandbits(width)
            for _ in range(count // 2 if prefixes else count)]
    for _ in range(count - len(keys)):
        prefix = prefixes[rng.randrange(len(prefixes))]
        free = width - prefix.length
        keys.append(prefix.network_int()
                    | (rng.getrandbits(free) if free else 0))
    return keys


def image_differences(router: Any) -> List[str]:
    """How a ``SnapshotRouter``'s served image differs from a fresh compile.

    Every plan is flattened the way the codec exports it — each table,
    the arena up to ``arena_size``, and the scalar metadata — and
    compared with ``FlatSubCellPlan.compile`` of its sub-cell.  Read
    under the update lock; empty when the image equals the compile.
    """
    from .core.flatpath import FlatSubCellPlan
    from .shard.codec import _flatten_cell

    differences: List[str] = []
    with router._lock:
        snapshot, engine = router._snapshot, router.fib.engine
        plans = snapshot._plans
        if len(plans) != len(engine.subcells):
            return [f"{len(plans)} plans for {len(engine.subcells)} "
                    f"sub-cells"]
        for position, (plan, subcell) in enumerate(
                zip(plans, engine.subcells)):
            fresh = FlatSubCellPlan.compile(subcell, snapshot.width)
            served: List[Tuple[str, Any]] = []
            compiled: List[Tuple[str, Any]] = []
            served_meta = _flatten_cell(f"s{position}", plan, served)
            compiled_meta = _flatten_cell(f"s{position}", fresh, compiled)
            if served_meta != compiled_meta:
                differences.append(
                    f"s{position} metadata {served_meta} != {compiled_meta}")
            for (name, mine), (_name, theirs) in zip(served, compiled):
                if mine.dtype != theirs.dtype or not (
                        mine.shape == theirs.shape and (mine == theirs).all()):
                    differences.append(f"{name} differs from a fresh compile")
        if snapshot.stale:
            differences.append("served image is stale")
    return differences


def image_matches_compile(router: Any) -> bool:
    """True when the served image equals a fresh compile of the engine."""
    return not image_differences(router)


@dataclass
class HarnessReport:
    """Base of every harness report: the gate failures, JSON-ready."""

    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """Every dataclass field, plus ``ok``."""
        payload = asdict(self)
        payload["ok"] = self.ok
        return payload
