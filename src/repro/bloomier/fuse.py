"""Binary-fuse (spatially-coupled XOR) Index Table backend.

The paper's Bloomier construction provisions m = 3n slots because fully
random 3-uniform hypergraphs only peel reliably below the c3 ≈ 0.818
density threshold.  Dietzfelbinger & Walzer's fuse graphs and Graf &
Lemire's binary fuse filters sidestep that threshold with *spatial
coupling*: the slot array is cut into many consecutive segments of length
L, each key hashes to a uniform *start segment* s, and its three slots
live in segments s, s+1, s+2 (one uniform offset within each).  Peeling
then succeeds at overprovisioning factors of ~1.13-2x depending on n —
the boundary segments are under-loaded, peel first, and unzip the rest.

For Chisel this shrinks the Index Table (storage_bits) at the same value
width, and — because the construction still peels via the standard
count/XOR trick — `bloomier/peeling.py`, the refcount singleton-insert
path, and the partitioned wrapper's spillover TCAM all apply unchanged.
Mutable values come for free exactly as in "Bloomier filters: a second
look": the table stores XOR shares of the value, so re-encoding a key's
value touches one word.

Registered as the ``"fuse"`` backend (see `bloomier/backend.py`).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from ..hashing.tabulation import TabulationHash
from .backend import XorIndexTable, register_backend

__all__ = ["FuseIndexBackend", "fuse_geometry"]


def fuse_geometry(capacity: int, arity: int = 3):
    """(segment_length, num_segments, num_slots) for ``capacity`` keys.

    Follows the binary-fuse sizing rules: segment length grows like
    ``3.33^`` (so roughly n^0.86 segments), and the overprovisioning
    factor shrinks from ~2x at n=100 toward ~1.13x as n grows.  Small
    capacities get proportionally more slack because boundary effects
    dominate; even so the total stays well below the Bloomier 3x.
    """
    if capacity < 1:
        raise ValueError("capacity must be positive")
    exponent = int(math.log(max(capacity, 2)) / math.log(3.33) + 2.25)
    segment_length = 1 << max(2, min(18, exponent))
    size_factor = max(
        1.125,
        0.875 + 0.25 * math.log(1e6) / math.log(max(capacity, 4)),
    )
    num_segments = max(
        arity, int(math.ceil(capacity * size_factor / segment_length))
    )
    return segment_length, num_segments, num_segments * segment_length


class FuseIndexBackend(XorIndexTable):
    """Spatially-coupled 3-wise XOR table, drop-in for `BloomierFilter`.

    ``slots_per_key`` is accepted for constructor compatibility with the
    Bloomier backend but ignored: fuse sizing is governed by the coupled
    geometry (`fuse_geometry`), not a per-key slot budget.
    """

    kind = "fuse"

    __slots__ = (
        "segment_length", "num_segments", "start_range",
        "_start_hash", "_offset_hashes",
    )

    def __init__(
        self,
        capacity: int,
        key_bits: int,
        value_bits: int,
        num_hashes: int = 3,
        slots_per_key: int = 3,  # noqa: ARG002 - signature parity
        rng: Optional[random.Random] = None,
        max_rehash: int = 8,
        max_spill: int = 32,
        hash_family=None,
    ):
        if num_hashes < 2:
            raise ValueError("fuse construction needs arity >= 2")
        rng = rng or random.Random(0)
        segment_length, num_segments, num_slots = fuse_geometry(
            capacity, num_hashes
        )
        self.segment_length = segment_length
        self.num_segments = num_segments
        # A key's first segment: uniform over [0, start_range) so that
        # segments s .. s+arity-1 all exist.
        self.start_range = num_segments - num_hashes + 1
        constructor = hash_family or TabulationHash
        # Extra start-hash output bits keep the modulo-bias over
        # start_range negligible.
        start_bits = min(30, max(1, (self.start_range - 1).bit_length() + 4))
        self._start_hash = constructor(key_bits, start_bits, rng)
        # segment_length is a power of two, so the offset hashes emit
        # exactly log2(L) bits: no modulo needed in scalar or batch code.
        offset_bits = max(1, segment_length.bit_length() - 1)
        self._offset_hashes = [
            constructor(key_bits, offset_bits, rng) for _ in range(num_hashes)
        ]
        super().__init__(
            capacity=capacity,
            key_bits=key_bits,
            value_bits=value_bits,
            num_hashes=num_hashes,
            num_slots=num_slots,
            rng=rng,
            max_rehash=max_rehash,
            max_spill=max_spill,
        )

    # -- hashing -----------------------------------------------------------

    def neighborhood(self, key: int) -> Sequence[int]:
        """HN(key): one slot in each of segments s, s+1, ..., s+k-1.

        Consecutive distinct segments make the slots pairwise distinct,
        which the peeling argument and the invariant verifier rely on.
        """
        start = self._start_hash(key) % self.start_range
        segment_length = self.segment_length
        return tuple(
            (start + index) * segment_length + hash_fn(key)
            for index, hash_fn in enumerate(self._offset_hashes)
        )

    def _rehash(self) -> None:
        self._start_hash.rehash(self._rng)
        for hash_fn in self._offset_hashes:
            hash_fn.rehash(self._rng)

    def _hash_state(self) -> object:
        return (
            self._start_hash.snapshot(),
            [hash_fn.snapshot() for hash_fn in self._offset_hashes],
        )

    def _restore_hash_state(self, state: object) -> None:
        start_state, offset_snapshots = state
        self._start_hash.restore(start_state)
        for hash_fn, saved in zip(self._offset_hashes, offset_snapshots):
            hash_fn.restore(saved)

    # -- batch-compiler surface ---------------------------------------------

    @property
    def start_hash(self) -> TabulationHash:
        """The start-segment hash (read-only use; batch vectorization)."""
        return self._start_hash

    @property
    def offset_hashes(self) -> List[TabulationHash]:
        """The per-position offset hashes (read-only use)."""
        return self._offset_hashes


register_backend("fuse", FuseIndexBackend)
