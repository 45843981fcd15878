"""Unit tests for the partitioned Bloomier filter and spillover TCAM."""

import random

import pytest

from repro.bloomier import (
    InsertOutcome,
    PartitionedBloomierFilter,
    SpilloverCapacityError,
    SpilloverTCAM,
)


def build(num_keys=3000, partitions=8, seed=0):
    rng = random.Random(seed)
    keys = rng.sample(range(1 << 32), num_keys)
    items = {key: index % 4096 for index, key in enumerate(keys)}
    pbf = PartitionedBloomierFilter(
        capacity=num_keys, key_bits=32, value_bits=12,
        partitions=partitions, rng=random.Random(seed + 1),
    )
    pbf.setup(items)
    return pbf, items


class TestSpilloverTCAM:
    def test_insert_lookup_remove(self):
        tcam = SpilloverTCAM(capacity=4)
        tcam.insert(10, 1)
        assert tcam.lookup(10) == 1
        assert tcam.remove(10) == 1
        assert tcam.lookup(10) is None

    def test_capacity_enforced(self):
        tcam = SpilloverTCAM(capacity=2)
        tcam.insert(1, 1)
        tcam.insert(2, 2)
        with pytest.raises(SpilloverCapacityError):
            tcam.insert(3, 3)

    def test_overwrite_does_not_consume_capacity(self):
        tcam = SpilloverTCAM(capacity=1)
        tcam.insert(1, 1)
        tcam.insert(1, 2)
        assert tcam.lookup(1) == 2

    def test_iteration_and_len(self):
        tcam = SpilloverTCAM(capacity=4)
        tcam.insert(1, 10)
        tcam.insert(2, 20)
        assert dict(iter(tcam)) == {1: 10, 2: 20}
        assert len(tcam) == 2

    def test_storage_bits_model(self):
        tcam = SpilloverTCAM(capacity=32, key_bits=32, value_bits=20)
        assert tcam.storage_bits() == 32 * (64 + 20)


class TestPartitionedSetup:
    def test_all_values_retrievable(self):
        pbf, items = build()
        assert all(pbf.lookup(key) == value for key, value in items.items())

    def test_partitioning_is_stable(self):
        pbf, items = build(num_keys=500)
        key = next(iter(items))
        assert pbf.group_of(key) == pbf.group_of(key)

    def test_groups_reasonably_balanced(self):
        pbf, items = build(num_keys=4000, partitions=8)
        counts = [0] * 8
        for key in items:
            counts[pbf.group_of(key)] += 1
        assert max(counts) < 2 * (4000 / 8)

    def test_contains_and_get(self):
        pbf, items = build(num_keys=200)
        key, value = next(iter(items.items()))
        assert key in pbf
        assert pbf.get(key) == value
        assert 0xFFFFFFFF not in pbf or 0xFFFFFFFF in items

    def test_len(self):
        pbf, items = build(num_keys=321)
        assert len(pbf) == 321


class TestPartitionedDynamics:
    def test_insert_outcomes(self):
        pbf, items = build(num_keys=2000, seed=3)
        rng = random.Random(17)
        outcomes = set()
        inserted = {}
        for _ in range(600):
            key = rng.getrandbits(32)
            if key in pbf:
                continue
            outcome, word = pbf.insert(key, 77)
            outcomes.add(outcome)
            inserted[key] = 77
            if outcome is InsertOutcome.SINGLETON:
                # The one Index-Table word written, in the key's group.
                group, slot = word
                assert group == pbf.group_of(key)
                assert slot in pbf.groups[group].neighborhood(key)
            else:
                assert word is None
        assert InsertOutcome.SINGLETON in outcomes
        assert all(pbf.lookup(k) == v for k, v in inserted.items())
        assert all(pbf.lookup(k) == v for k, v in items.items() if k not in inserted)

    def test_rebuild_preserves_all(self):
        """Force rebuilds by loading a tiny filter heavily."""
        pbf = PartitionedBloomierFilter(
            capacity=64, key_bits=32, value_bits=8,
            partitions=2, rng=random.Random(5),
        )
        pbf.setup({k: k % 256 for k in range(1, 30)})
        rng = random.Random(18)
        added = {}
        while len(pbf) < 60:
            key = rng.getrandbits(32)
            if key in pbf:
                continue
            pbf.insert(key, key % 256)
            added[key] = key % 256
        assert pbf.rebuild_count + pbf.singleton_insert_count >= len(added)
        assert all(pbf.lookup(k) == v for k, v in added.items())

    def test_delete_removes_key(self):
        pbf, items = build(num_keys=400, seed=4)
        key = next(iter(items))
        pbf.delete(key)
        assert key not in pbf
        assert len(pbf) == 399

    def test_delete_absent_raises(self):
        pbf, items = build(num_keys=100, seed=5)
        missing = 0
        while missing in items:
            missing += 1
        with pytest.raises(KeyError):
            pbf.delete(missing)

    def test_delete_many_batches_rebuilds(self):
        pbf, items = build(num_keys=1000, seed=6)
        victims = list(items)[:100]
        rebuilds = pbf.delete_many(victims)
        assert rebuilds <= pbf.partitions
        assert all(v not in pbf for v in victims)
        survivors = {k: v for k, v in items.items() if k not in set(victims)}
        assert all(pbf.lookup(k) == v for k, v in survivors.items())

    def test_storage_includes_spillover(self):
        pbf, _items = build(num_keys=100, seed=7)
        assert pbf.storage_bits() > pbf.spillover.storage_bits()
