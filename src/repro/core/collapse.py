"""Prefix-collapsing planner (paper §4.3.1, §4.3.3).

A *collapse plan* partitions prefix lengths into intervals.  All prefixes
with length in ``[base, base + span]`` are collapsed to ``base`` and live in
one Chisel sub-cell; the ``span`` collapsed bits are disambiguated by that
sub-cell's 2**span-bit bit-vectors.

Two planning modes:

* ``greedy`` — the paper's §4.3.3 algorithm: walk populated lengths from the
  shortest, absorbing lengths into the current interval until the stride is
  exhausted.  Minimizes sub-cells for a *static* table.
* ``full`` — tile every length from 0 to the address width with intervals of
  ``stride + 1`` lengths, so that any later route announcement falls in some
  interval ("(low, high) = stride interval in which l lies", Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..prefix.table import NextHop, RoutingTable


@dataclass(frozen=True)
class SubCellPlan:
    """One collapse interval: lengths [base, base + span] -> sub-cell at base."""

    base: int
    span: int

    @property
    def top(self) -> int:
        return self.base + self.span

    def covers(self, length: int) -> bool:
        return self.base <= length <= self.top


class CollapsePlan:
    """An ordered, non-overlapping set of sub-cell intervals."""

    def __init__(self, subcells: List[SubCellPlan], width: int):
        self.subcells = sorted(subcells, key=lambda cell: cell.base)
        self.width = width
        for before, after in zip(self.subcells, self.subcells[1:]):
            if after.base <= before.top:
                raise ValueError(
                    f"overlapping intervals {before} and {after}"
                )

    def __iter__(self):
        return iter(self.subcells)

    def __len__(self) -> int:
        return len(self.subcells)

    def interval_for(self, length: int) -> SubCellPlan:
        """The (low, high) interval containing ``length`` (Fig. 7 line 1)."""
        for cell in self.subcells:
            if cell.covers(length):
                return cell
        raise KeyError(f"no sub-cell interval covers length {length}")

    def has_interval_for(self, length: int) -> bool:
        return any(cell.covers(length) for cell in self.subcells)


def plan_greedy(populated_lengths: Iterable[int], stride: int,
                width: int) -> CollapsePlan:
    """Paper §4.3.3: greedy grouping starting at the shortest populated length."""
    lengths = sorted(set(populated_lengths))
    cells: List[SubCellPlan] = []
    index = 0
    while index < len(lengths):
        base = lengths[index]
        top = base
        while index < len(lengths) and lengths[index] - base <= stride:
            top = lengths[index]
            index += 1
        cells.append(SubCellPlan(base, top - base))
    return CollapsePlan(cells, width)

def plan_full(stride: int, width: int, first_base: int = 0) -> CollapsePlan:
    """Tile [first_base, width] with stride+1-length intervals."""
    cells: List[SubCellPlan] = []
    base = first_base
    while base <= width:
        span = min(stride, width - base)
        cells.append(SubCellPlan(base, span))
        base += span + 1
    return CollapsePlan(cells, width)


def plan_optimal(table: RoutingTable, stride: int,
                 objective: str = "worst") -> CollapsePlan:
    """Storage-minimizing interval partition (DP extension of §4.3.3).

    The paper's greedy planner absorbs lengths bottom-up; like CPE's
    optimal level placement, interval boundaries can instead be *chosen*
    to minimize storage.  Cost of a cell [base, top] holding E entries:

        E * (3*ptr + (base+1) + 2**(top-base) + ptr)   bits

    (Index + Filter + Bit-vector widths from the sizing model.)  With
    ``objective="worst"`` E is the original-prefix count (deterministic
    sizing); with ``objective="average"`` E is the measured collapsed-key
    count for that candidate interval.  O(#lengths^2) cells; the
    average-case objective pays one pass over the table per candidate
    base.
    """
    from .sizing import DEFAULT_PARTITION_CAPACITY, pointer_bits

    histogram = table.stats().length_histogram
    if not histogram:
        return CollapsePlan([SubCellPlan(0, 0)], table.width)
    lengths = sorted(histogram)
    count = len(lengths)

    by_length: Dict[int, List[int]] = {}
    if objective == "average":
        for prefix, _next_hop in table:
            by_length.setdefault(prefix.length, []).append(prefix.value)
    elif objective != "worst":
        raise ValueError(f"unknown objective {objective!r}")

    def entries_for(j: int, i: int) -> int:
        base, top = lengths[j], lengths[i]
        if objective == "worst":
            return sum(
                histogram[length] for length in lengths[j:i + 1]
            )
        distinct = set()
        for length in lengths[j:i + 1]:
            shift = length - base
            for value in by_length.get(length, ()):
                distinct.add(value >> shift)
        return len(distinct)

    def cell_cost(j: int, i: int) -> int:
        base, top = lengths[j], lengths[i]
        entries = entries_for(j, i)
        ptr = pointer_bits(min(max(1, entries), DEFAULT_PARTITION_CAPACITY))
        width_bits = 3 * ptr + (base + 1) + (1 << (top - base)) + ptr
        return entries * width_bits

    infinity = float("inf")
    dp = [infinity] * (count + 1)
    parent = [-1] * (count + 1)
    dp[0] = 0
    for i in range(1, count + 1):
        for j in range(i):
            if lengths[i - 1] - lengths[j] > stride:
                continue
            cost = dp[j] + cell_cost(j, i - 1)
            if cost < dp[i]:
                dp[i] = cost
                parent[i] = j
    cells: List[SubCellPlan] = []
    i = count
    while i > 0:
        j = parent[i]
        cells.append(SubCellPlan(lengths[j], lengths[i - 1] - lengths[j]))
        i = j
    return CollapsePlan(cells, table.width)


def plan_for_table(table: RoutingTable, stride: int,
                   coverage: str = "greedy") -> CollapsePlan:
    if coverage == "greedy":
        lengths = table.stats().populated_lengths or [0]
        return plan_greedy(lengths, stride, table.width)
    if coverage == "full":
        return plan_full(stride, table.width)
    if coverage == "optimal":
        return plan_optimal(table, stride, objective="average")
    raise ValueError(f"unknown coverage mode {coverage!r}")


def plan_storage_bits(table: RoutingTable, plan: CollapsePlan) -> int:
    """As-planned on-chip bits for a table under a given collapse plan
    (average case: measured collapsed counts; sizing-model widths)."""
    from .sizing import DEFAULT_PARTITION_CAPACITY, pointer_bits

    grouped = group_by_subcell(table, plan)
    total = 0
    for cell, buckets in grouped.items():
        entries = len(buckets)
        if not entries:
            continue
        ptr = pointer_bits(min(entries, DEFAULT_PARTITION_CAPACITY))
        width_bits = 3 * ptr + (cell.base + 1) + (1 << cell.span) + ptr
        total += entries * width_bits
    return total


#: One sub-cell's shadow buckets: collapsed value -> {(length, suffix) -> hop}.
Buckets = Dict[int, Dict[Tuple[int, int], NextHop]]


def group_by_subcell(table: RoutingTable,
                     plan: CollapsePlan) -> Dict[SubCellPlan, Buckets]:
    """Collapse every route into its sub-cell's buckets.

    Returns, per sub-cell, a mapping
    ``collapsed value -> {(original length, suffix bits) -> next hop}``:
    exactly the shadow state each sub-cell keeps (§4.4's software copy).
    The collapsed value is ``Prefix.collapse(base).value`` and the suffix
    ``suffix_bits(base)``; each length's interval is resolved once.
    """
    grouped: Dict[SubCellPlan, Buckets] = {cell: {} for cell in plan}
    # length -> (its sub-cell's buckets, collapsed bits, suffix mask)
    by_length: Dict[int, Tuple[Buckets, int, int]] = {}
    for prefix, next_hop in table:
        length = prefix.length
        target = by_length.get(length)
        if target is None:
            cell = plan.interval_for(length)
            shift = length - cell.base
            target = by_length[length] = (grouped[cell], shift,
                                          (1 << shift) - 1)
        buckets, shift, mask = target
        value = prefix.value
        bucket = buckets.setdefault(value >> shift, {})
        bucket[(length, value & mask)] = next_hop
    return grouped


def collapsed_count(table: RoutingTable, plan: CollapsePlan) -> int:
    """Number of distinct collapsed prefixes (Index Table keys) for a table."""
    return sum(len(buckets)
               for buckets in group_by_subcell(table, plan).values())
