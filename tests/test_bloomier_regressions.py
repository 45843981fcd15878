"""Regression tests for two silent-wrong-answer bugs in the Bloomier layer.

Both bugs produced *wrong lookups with no error* — the worst failure class
for a collision-free forwarding structure — and both fail loudly here on
the pre-fix code:

1. ``PartitionedBloomierFilter.insert`` never checked the spillover TCAM,
   so re-inserting a previously-spilled key with a new value could encode
   it into the Index Table while ``lookup`` kept answering from the stale
   TCAM entry (the TCAM is consulted first) forever.
2. ``setup`` rehashed the hash functions on every peel stall but only
   rewrote the table after success; a setup that ultimately raised
   ``BloomierSetupError`` left *new* hash functions over the *old* table,
   so every previously-encoded key decoded garbage.
"""

import random

import pytest

from repro.bloomier import (
    BloomierSetupError,
    InsertOutcome,
    PartitionedBloomierFilter,
    make_backend,
)
from repro.faults import FaultInjector

BACKENDS = ("bloomier", "fuse")


def _build_with_spill(backend, max_seeds=4000):
    """A 1-partition filter whose setup spilled at least one key.

    Tiny key space + tight slot budget makes unpeelable key pairs (same
    neighborhood in every segment) likely; scan seeds until one setup
    reports a spill.  ``max_rehash=0`` puts the spill budget in play on
    the first stall instead of rehashing around it.
    """
    for seed in range(max_seeds):
        pbf = PartitionedBloomierFilter(
            capacity=8,
            key_bits=4,
            value_bits=8,
            partitions=1,
            rng=random.Random(seed),
            max_rehash=0,
            spill_capacity=8,
            backend=backend,
        )
        items = {key: key + 1 for key in range(8)}
        report = pbf.setup(items)
        if report.spilled:
            return pbf, items, report
    raise AssertionError(f"no spilling seed found for {backend!r}")


@pytest.mark.parametrize("backend", BACKENDS)
def test_spilled_key_reinsert_not_shadowed_by_stale_tcam(backend):
    """Bug 1: a re-inserted spilled key must serve its *new* value."""
    pbf, items, report = _build_with_spill(backend)
    key = next(iter(report.spilled))
    old_value = items[key]
    assert pbf.lookup(key) == old_value

    new_value = old_value ^ 0xFF
    pbf.delete(key)
    pbf.insert(key, new_value)
    assert pbf.lookup(key) == new_value
    assert pbf.get(key) == new_value


@pytest.mark.parametrize("backend", BACKENDS)
def test_reinsert_while_still_spilled_refreshes_tcam(backend):
    """Bug 1, the direct shadowing path: insert over a live TCAM entry.

    The pre-fix ``insert`` encoded the new value into the Index Table (or
    rebuilt the group with it) while the stale TCAM entry kept winning
    every lookup.  Post-fix it either migrates the key into the table
    (evicting the TCAM entry) or refreshes the TCAM value in place —
    both observable as ``lookup`` returning the new value.
    """
    pbf, items, report = _build_with_spill(backend)
    key = next(iter(report.spilled))
    new_value = items[key] ^ 0xFF
    outcome, word = pbf.insert(key, new_value)
    assert outcome in (InsertOutcome.SINGLETON, InsertOutcome.SPILL_REFRESH)
    assert word is None  # a TCAM entry changed either way
    assert pbf.lookup(key) == new_value
    assert pbf.get(key) == new_value
    # The TCAM and the per-group spill bookkeeping must still agree
    # (INV401's invariant): either both dropped the key or both updated.
    group_spilled = pbf._spilled_by_group[pbf.group_of(key)]
    if outcome is InsertOutcome.SPILL_REFRESH:
        assert group_spilled[key] == new_value
        assert pbf.spillover.lookup(key) == new_value
    else:
        assert key not in group_spilled
        assert pbf.spillover.lookup(key) is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_setup_leaves_previous_encoding_decodable(backend):
    """Bug 2: a failed re-setup must not skew the surviving table.

    The stall is injected into the *peel step* (``mode="stall"``), so the
    real setup loop runs: it rehashes through its whole ``max_rehash``
    budget and then gives up.  Pre-fix, those rehashes left fresh hash
    functions addressing a table encoded under the old ones — every
    lookup silently garbage.  Post-fix the hash state is rolled back
    before the error propagates.
    """
    rng = random.Random(7)
    table = make_backend(
        backend, capacity=64, key_bits=16, value_bits=12,
        rng=random.Random(3), max_rehash=4,
    )
    items = {rng.getrandbits(16): rng.getrandbits(12) for _ in range(50)}
    report = table.setup(items)
    assert not report.spilled
    encoded_before = dict(table.shadow)

    injector = FaultInjector(seed=1)
    with injector.force_setup_failure(times=1, mode="stall") as delivered:
        with pytest.raises(BloomierSetupError):
            table.setup({rng.getrandbits(16): 1 for _ in range(50)})
    assert delivered[0] == 1

    assert table.shadow == encoded_before
    for key, value in encoded_before.items():
        assert table.lookup(key) == value, (
            f"key {key:#x} decodes garbage after failed re-setup"
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_setup_then_successful_retry(backend):
    """After a failed setup the structure is fully usable: the old keys
    serve, and a later (un-sabotaged) setup converges normally."""
    rng = random.Random(21)
    table = make_backend(
        backend, capacity=64, key_bits=16, value_bits=12,
        rng=random.Random(9), max_rehash=4,
    )
    first = {rng.getrandbits(16): rng.getrandbits(12) for _ in range(40)}
    table.setup(first)

    injector = FaultInjector(seed=2)
    second = {rng.getrandbits(16): rng.getrandbits(12) for _ in range(40)}
    with injector.force_setup_failure(times=1, mode="stall"):
        with pytest.raises(BloomierSetupError):
            table.setup(second)

    report = table.setup(second)
    for key, value in second.items():
        if key not in report.spilled:
            assert table.lookup(key) == value
