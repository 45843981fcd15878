"""Invertible Bloom Lookup Tables for set reconciliation.

Chisel's whole datapath is built on Bloom-family hashing (paper §3–4);
IBLTs (Goodrich & Mitzenmacher, PAPERS.md) extend the same trick from
membership to *set reconciliation*: two parties each fold their key set
into an array of XOR cells, subtract the arrays cell-wise, and peel the
difference back out.  A replica that diverged from the writer by d
routes exchanges O(d) cells — not O(table) records — to learn exactly
which routes differ.

Each of the ``m`` cells holds ``(count, key_sum, check_sum)``:

* ``count``     signed number of keys folded in (insert +1, delete −1);
* ``key_sum``   XOR of the 64-bit keys folded in;
* ``check_sum`` XOR of a per-key check hash — the integrity witness
  that makes a ``count == ±1`` cell *verifiably* pure.

Keys are hashed into one cell per partition (``hashes`` partitions of
``m / hashes`` cells each — the partitioned layout peels measurably
better than unrestricted k-choice at small m).  ``subtract`` cancels
keys present on both sides, so decoding an ``A − B`` table yields the
symmetric difference split into (only in A, only in B) by cell count
sign.  Decoding is the classic peel: pop any pure cell, record its key,
unfold it from its other cells, repeat; success is an all-zero table.

Sizing: a k=3 IBLT decodes a d-key difference with high probability at
``m ≈ 1.5·d`` asymptotically; small tables need more headroom, so
:func:`cells_for` uses ``CELL_MULTIPLIER`` (1.8) with an absolute
minimum, and the wire protocol retries with doubled ``m`` (and a fresh
seed) on decode failure — the pinned failure-rate test in
``tests/test_iblt.py`` keeps the multiplier honest.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, List, Optional, Set, Tuple

from ..integrity import IntegrityError

#: Cells per difference key (see module docstring / tests/test_iblt.py).
CELL_MULTIPLIER = 1.8

#: Default hash partitions (k).  3 is the standard sweet spot: fewer
#: peels poorly, more inflates the per-key fold cost and the minimum m.
DEFAULT_HASHES = 3

#: Smallest cell count per partition — tiny deltas still get a table
#: wide enough that three keys rarely land on one cell per partition.
_MIN_CELLS_PER_HASH = 8

_MASK64 = (1 << 64) - 1

_CELL = struct.Struct("<qQQ")  # count, key_sum, check_sum
_HEADER = struct.Struct("<IBQ")  # cells, hashes, seed


class IBLTError(IntegrityError, ValueError):
    """Structurally invalid IBLT input (geometry mismatch, bad blob)."""


def _mix(value: int, seed: int) -> int:
    """splitmix64 finalizer — cheap, well-distributed 64-bit mixing."""
    value = (value + seed) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def fingerprint(parts: Iterable[object]) -> int:
    """A 64-bit fingerprint of a tuple of ints/strings (never 0).

    Used to fold a route entry — ``(prefix_value, prefix_length,
    gateway, interface, seq)`` — into one IBLT key.  blake2b keeps
    accidental collisions at the 2^-64 scale, far below the per-session
    route counts; 0 is remapped so an all-zero (empty) cell can never
    masquerade as a real key.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        encoded = str(part).encode("utf-8")
        digest.update(len(encoded).to_bytes(4, "little"))
        digest.update(encoded)
    value = int.from_bytes(digest.digest(), "little")
    return value or 1


def cells_for(estimated_delta: int, hashes: int = DEFAULT_HASHES,
              multiplier: float = CELL_MULTIPLIER) -> int:
    """Cell count for an estimated symmetric-difference size.

    Rounded up to a multiple of ``hashes`` (the partitioned layout needs
    equal segments) with an absolute minimum for tiny deltas.
    """
    if hashes < 2:
        raise IBLTError(f"need >= 2 hash partitions, got {hashes}")
    wanted = max(hashes * _MIN_CELLS_PER_HASH,
                 math.ceil(max(estimated_delta, 1) * multiplier))
    return ((wanted + hashes - 1) // hashes) * hashes


class IBLT:
    """One invertible Bloom lookup table over 64-bit keys."""

    def __init__(self, cells: int, hashes: int = DEFAULT_HASHES,
                 seed: int = 0) -> None:
        if hashes < 2:
            raise IBLTError(f"need >= 2 hash partitions, got {hashes}")
        if cells < hashes or cells % hashes:
            raise IBLTError(
                f"cell count {cells} is not a positive multiple of "
                f"{hashes} partitions")
        self.cells = cells
        self.hashes = hashes
        self.seed = seed & _MASK64
        self._segment = cells // hashes
        self.counts: List[int] = [0] * cells
        self.key_sums: List[int] = [0] * cells
        self.check_sums: List[int] = [0] * cells

    # -- folding -------------------------------------------------------------

    def _indices(self, key: int) -> List[int]:
        segment = self._segment
        return [
            index * segment + _mix(key, self.seed + index) % segment
            for index in range(self.hashes)
        ]

    def _check(self, key: int) -> int:
        return _mix(key, self.seed ^ 0x9E3779B97F4A7C15)

    def _fold(self, key: int, delta: int) -> None:
        key &= _MASK64
        check = self._check(key)
        for index in self._indices(key):
            self.counts[index] += delta
            self.key_sums[index] ^= key
            self.check_sums[index] ^= check

    def insert(self, key: int) -> None:
        self._fold(key, +1)

    def delete(self, key: int) -> None:
        self._fold(key, -1)

    def extend(self, keys: Iterable[int]) -> None:
        for key in keys:
            self.insert(key)

    # -- reconciliation ------------------------------------------------------

    def subtract(self, other: "IBLT") -> "IBLT":
        """Cell-wise ``self − other`` (shared keys cancel exactly).

        Both tables must share geometry *and* seed — otherwise the same
        key folds into different cells and nothing cancels.
        """
        if (self.cells, self.hashes, self.seed) != (
                other.cells, other.hashes, other.seed):
            raise IBLTError(
                f"geometry mismatch: ({self.cells},{self.hashes},"
                f"{self.seed:#x}) vs ({other.cells},{other.hashes},"
                f"{other.seed:#x})")
        result = IBLT(self.cells, self.hashes, self.seed)
        for index in range(self.cells):
            result.counts[index] = self.counts[index] - other.counts[index]
            result.key_sums[index] = (self.key_sums[index]
                                      ^ other.key_sums[index])
            result.check_sums[index] = (self.check_sums[index]
                                        ^ other.check_sums[index])
        return result

    def decode(self) -> Optional[Tuple[Set[int], Set[int]]]:
        """Peel a subtracted table into (keys only in A, keys only in B).

        ``self`` is interpreted as ``A − B``.  Returns ``None`` when the
        peel stalls or leftovers remain (undersized table or a hash
        alignment fluke) — the caller retries with more cells.  The
        table is consumed (peeled toward zero) either way.
        """
        only_self: Set[int] = set()
        only_other: Set[int] = set()
        queue = [index for index in range(self.cells) if self._pure(index)]
        while queue:
            index = queue.pop()
            if not self._pure(index):
                continue  # an earlier peel already unfolded this cell
            sign = self.counts[index]
            key = self.key_sums[index]
            (only_self if sign == 1 else only_other).add(key)
            # Unfold with the opposite sign; this zeroes the pure cell
            # and may expose new pure cells among the key's other homes.
            self._fold(key, -sign)
            for touched in self._indices(key):
                if self._pure(touched):
                    queue.append(touched)
        if any(self.counts) or any(self.key_sums) or any(self.check_sums):
            return None
        return only_self, only_other

    def _pure(self, index: int) -> bool:
        if self.counts[index] not in (1, -1):
            return False
        key = self.key_sums[index]
        return self._check(key) == self.check_sums[index]

    # -- codec ---------------------------------------------------------------

    def serialize(self) -> bytes:
        """Pack to bytes: 13-byte header + 24 bytes per cell."""
        out = bytearray(_HEADER.pack(self.cells, self.hashes, self.seed))
        for index in range(self.cells):
            out += _CELL.pack(self.counts[index], self.key_sums[index],
                              self.check_sums[index])
        return bytes(out)

    @classmethod
    def deserialize(cls, blob: bytes) -> "IBLT":
        if len(blob) < _HEADER.size:
            raise IBLTError(f"IBLT blob truncated at {len(blob)} bytes")
        cells, hashes, seed = _HEADER.unpack_from(blob, 0)
        expected = _HEADER.size + cells * _CELL.size
        if len(blob) != expected:
            raise IBLTError(
                f"IBLT blob is {len(blob)} bytes, geometry wants {expected}")
        table = cls(cells, hashes, seed)
        position = _HEADER.size
        for index in range(cells):
            count, key_sum, check_sum = _CELL.unpack_from(blob, position)
            table.counts[index] = count
            table.key_sums[index] = key_sum
            table.check_sums[index] = check_sum
            position += _CELL.size
        return table

    def __len__(self) -> int:
        return self.cells

    def serialized_size(self) -> int:
        return _HEADER.size + self.cells * _CELL.size
