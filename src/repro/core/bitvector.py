"""Bit-vector buckets: collapsed-prefix disambiguation (paper §4.3.1–4.3.2).

All original prefixes that collapse to the same value differ only in their
collapsed bits, so a bucket of 2**span bits — one per possible expansion of
the collapsed bits — disambiguates them.  Bit e is set iff some original
prefix covers expansion e; the winner for e is the *longest* such original
(LPM semantics inside the bucket), and its next hop sits in the bucket's
Result Table region at the rank of bit e among the set bits.

``Bucket`` is the shadow-software view of one collapsed prefix: the set of
original (length, suffix) routes plus the dirty flag of §4.4.1.  From it the
hardware bit-vector and Result-Table region contents are derived.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..prefix.table import NextHop

OriginalKey = Tuple[int, int]  # (original prefix length, suffix bits below base)


class Bucket:
    """Shadow state for one collapsed prefix in one sub-cell."""

    __slots__ = ("base", "span", "originals", "dirty", "pointer")

    def __init__(self, base: int, span: int, pointer: int):
        self.base = base
        self.span = span
        self.originals: Dict[OriginalKey, NextHop] = {}
        self.dirty = False
        self.pointer = pointer  # Filter/Bit-vector table address p(t)

    # -- membership ---------------------------------------------------------

    def add(self, length: int, suffix: int, next_hop: NextHop) -> bool:
        """Insert/replace an original route; True if it was new."""
        key = (length, suffix)
        existed = key in self.originals
        self.originals[key] = next_hop
        return not existed

    def remove(self, length: int, suffix: int) -> Optional[NextHop]:
        return self.originals.pop((length, suffix), None)

    def has(self, length: int, suffix: int) -> bool:
        return (length, suffix) in self.originals

    def __len__(self) -> int:
        return len(self.originals)

    @property
    def empty(self) -> bool:
        return not self.originals

    # -- expansion coverage ----------------------------------------------------

    def covers(self, length: int, suffix: int, expansion: int) -> bool:
        """Does original (length, suffix) match expansion index ``expansion``?"""
        rel = length - self.base
        return (expansion >> (self.span - rel)) == suffix

    def winner(self, expansion: int) -> Optional[OriginalKey]:
        """The longest original covering ``expansion`` (the LPM winner)."""
        best: Optional[OriginalKey] = None
        for key in self.originals:
            length, suffix = key
            if self.covers(length, suffix, expansion):
                if best is None or length > best[0]:
                    best = key
        return best

    def next_hop_for(self, expansion: int) -> Optional[NextHop]:
        winner = self.winner(expansion)
        return self.originals[winner] if winner is not None else None

    # -- hardware views -----------------------------------------------------------

    def paint(self) -> Tuple[int, List[NextHop]]:
        """The bit-vector and the Result-Table region, in one pass.

        An original of relative length ``rel`` covers an aligned run of
        ``2**(span - rel)`` expansions.  Painting the runs into one slot
        per expansion in ascending length order lets the longest covering
        original — :meth:`winner` — overwrite the rest, so the set slots,
        read in bit order, are the region.
        """
        vector = 0
        slots: List[Optional[NextHop]] = [None] * (1 << self.span)
        for (length, suffix), next_hop in sorted(self.originals.items()):
            run = 1 << (self.span - length + self.base)
            start = suffix * run
            slots[start:start + run] = [next_hop] * run
            vector |= ((1 << run) - 1) << start
        return vector, [hop for hop in slots if hop is not None]

    def bit_vector(self) -> int:
        """The 2**span-bit vector; bit e set iff expansion e has a winner."""
        return self.paint()[0]

    def region(self) -> List[NextHop]:
        """Result-Table region contents: winners' next hops in bit order."""
        return self.paint()[1]

    def ones(self) -> int:
        return bin(self.bit_vector()).count("1")
