"""Seeded inputs for the benchmark: table, key streams, update trace, oracle.

Everything the serving stack receives is made here from the ``--seed``
argument; the same seed gives the same table, the same key batches and
the same update trace.  Generation is never timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.baselines.binary_trie import BinaryTrie
from repro.core.updates import ANNOUNCE, UpdateOp
from repro.prefix.prefix import Prefix
from repro.prefix.table import RoutingTable
from repro.replicate.state import RouteLedger
from repro.workloads import synthesize_trace, synthetic_table

ROUTES = 100_000
BATCH = 4096
WIDTH = 32
#: Batches generated at a time, so the loop hands in the next batch
#: without a pause between calls.
CHUNK = 32

NextHop = Optional[Tuple[str, str]]

# Independent numpy streams derived from one seed, one per purpose.
_STREAM_ZIPF_ORDER, _STREAM_KEYS, _STREAM_SAMPLE = 1, 2, 3


def next_hop_for(op: UpdateOp) -> Tuple[str, str]:
    """The (gateway, interface) an announce installs."""
    return f"10.8.{op.next_hop % 256}.1", f"eth{op.next_hop % 8}"


def zipf_keys(table: RoutingTable, seed: int) -> Iterator[np.ndarray]:
    """Endless 4096-key batches, Zipf(1) over a seeded prefix permutation.

    A key picks a prefix with probability proportional to 1/rank and
    fills the prefix's host bits at random.
    """
    prefixes = [prefix for prefix, _next_hop in table]
    order = np.random.default_rng([seed, _STREAM_ZIPF_ORDER]).permutation(
        len(prefixes))
    values = np.array([prefixes[i].value for i in order], dtype=np.uint64)
    shifts = np.array([WIDTH - prefixes[i].length for i in order],
                      dtype=np.uint64)
    bases = values << shifts
    host_masks = (np.uint64(1) << shifts) - np.uint64(1)
    cdf = np.cumsum(1.0 / np.arange(1, len(prefixes) + 1))
    cdf /= cdf[-1]
    rng = np.random.default_rng([seed, _STREAM_KEYS])
    while True:
        ranks = np.minimum(np.searchsorted(cdf, rng.random(CHUNK * BATCH)),
                           len(prefixes) - 1)
        host = rng.integers(0, 1 << WIDTH, CHUNK * BATCH, dtype=np.uint64)
        yield from (bases[ranks] | (host & host_masks[ranks])).reshape(
            CHUNK, BATCH)


def uniform_keys(seed: int) -> Iterator[np.ndarray]:
    """Endless 4096-key batches drawn uniformly from the address space."""
    rng = np.random.default_rng([seed, _STREAM_KEYS])
    while True:
        yield from rng.integers(0, 1 << WIDTH, (CHUNK, BATCH),
                                dtype=np.uint64)


class Oracle:
    """An independent ``BinaryTrie`` fed the same table and updates.

    Answers are resolved next hops, (gateway, interface), so they compare
    with the router's answers whatever ids its next-hop table hands out.
    The table's routes carry the names the bootstrap gives them, read from
    ``RouteLedger.from_table``.
    """

    def __init__(self, table: RoutingTable) -> None:
        self.trie = BinaryTrie(table.width)
        for entry in RouteLedger.from_table(table):
            self.trie.insert(Prefix(entry.value, entry.length, table.width),
                             (entry.gateway, entry.interface))

    def apply(self, op: UpdateOp) -> None:
        if op.op == ANNOUNCE:
            self.trie.insert(op.prefix, next_hop_for(op))
        else:
            self.trie.remove(op.prefix)

    def lookup(self, key: int) -> NextHop:
        return self.trie.lookup(key)


@dataclass
class Inputs:
    seed: int
    table: RoutingTable
    keys: Iterator[np.ndarray]
    trace: List[UpdateOp]
    sample: np.random.Generator

    def take(self, position: int, count: int) -> List[UpdateOp]:
        """The next ``count`` trace updates; the trace is never cycled."""
        if position + count > len(self.trace):
            raise RuntimeError(
                f"update trace exhausted at {position} of {len(self.trace)}; "
                "generate a longer one")
        return self.trace[position:position + count]


def make_inputs(seed: int, skewed: bool, updates: int) -> Inputs:
    """Table, key stream and an ``updates``-long trace for one seed."""
    table = synthetic_table(ROUTES, width=WIDTH, seed=seed)
    keys = zipf_keys(table, seed) if skewed else uniform_keys(seed)
    trace = synthesize_trace(table, updates, seed=seed) if updates else []
    sample = np.random.default_rng([seed, _STREAM_SAMPLE])
    return Inputs(seed, table, keys, trace, sample)
