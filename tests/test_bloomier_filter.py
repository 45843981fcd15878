"""Unit tests for the Bloomier filter Index Table."""

import random

import pytest

from repro.bloomier import BloomierFilter, BloomierSetupError


def build(num_keys=2000, value_bits=12, seed=0, capacity=None, **kwargs):
    rng = random.Random(seed)
    keys = rng.sample(range(1 << 32), num_keys)
    items = {key: index % (1 << value_bits) for index, key in enumerate(keys)}
    bf = BloomierFilter(
        capacity=capacity or num_keys, key_bits=32, value_bits=value_bits,
        rng=random.Random(seed + 1), **kwargs,
    )
    report = bf.setup(items)
    return bf, items, report


class TestSetup:
    def test_all_values_retrievable(self):
        bf, items, report = build()
        assert report.encoded == len(items)
        assert all(bf.lookup(key) == value for key, value in items.items())

    def test_setup_report_counts(self):
        _bf, items, report = build(num_keys=500)
        assert report.encoded + len(report.spilled) == 500

    def test_shadow_matches_items(self):
        bf, items, _report = build(num_keys=300)
        assert bf.shadow == items
        assert len(bf) == 300

    def test_overfull_setup_rejected(self):
        bf = BloomierFilter(capacity=10, key_bits=32, value_bits=4)
        with pytest.raises(BloomierSetupError):
            bf.setup({key: 0 for key in range(11)})

    def test_empty_setup(self):
        bf = BloomierFilter(capacity=10, key_bits=32, value_bits=4)
        report = bf.setup({})
        assert report.encoded == 0

    def test_resetup_replaces_contents(self):
        bf, items, _report = build(num_keys=200)
        new_items = {key: (value + 1) % 4096 for key, value in items.items()}
        bf.setup(new_items)
        assert all(bf.lookup(key) == value for key, value in new_items.items())

    def test_m_over_n_must_cover_k(self):
        with pytest.raises(ValueError):
            BloomierFilter(capacity=10, key_bits=32, value_bits=4,
                           num_hashes=4, slots_per_key=3)

    def test_various_k(self):
        for k in (2, 3, 4, 5):
            bf, items, _report = build(
                num_keys=400, seed=k, num_hashes=k, slots_per_key=k,
            )
            assert all(bf.lookup(key) == value for key, value in items.items())


class TestLookupSemantics:
    def test_nonmember_returns_within_value_width(self):
        bf, items, _report = build(value_bits=10)
        rng = random.Random(99)
        for _ in range(100):
            probe = rng.getrandbits(32)
            if probe in items:
                continue
            assert 0 <= bf.lookup(probe) < (1 << 10)

    def test_false_positive_pointers_exist(self):
        """Non-member lookups produce *some* pointer — the false positives
        the Filter Table exists to kill (§4.2)."""
        bf, items, _report = build(num_keys=3000, value_bits=12, seed=5)
        rng = random.Random(123)
        hits = 0
        for _ in range(2000):
            probe = rng.getrandbits(32)
            if probe in items:
                continue
            if bf.lookup(probe) in range(3000):
                hits += 1
        assert hits > 0


class TestIncrementalInsert:
    def test_insert_then_lookup(self):
        bf, items, _report = build(num_keys=1000, seed=2, capacity=1400)
        rng = random.Random(7)
        inserted = {}
        for _ in range(200):
            key = rng.getrandbits(32)
            if key in items or key in inserted:
                continue
            if bf.try_insert(key, 1234 & ((1 << 12) - 1)) is not None:
                inserted[key] = 1234 & ((1 << 12) - 1)
        assert inserted, "expected some singleton inserts to succeed"
        assert all(bf.lookup(k) == v for k, v in inserted.items())

    def test_insert_does_not_corrupt_existing(self):
        bf, items, _report = build(num_keys=1000, seed=3, capacity=1500)
        rng = random.Random(8)
        for _ in range(300):
            key = rng.getrandbits(32)
            if key in bf.shadow:
                continue
            bf.try_insert(key, 7)
        assert all(bf.lookup(key) == value for key, value in items.items())

    def test_duplicate_insert_rejected(self):
        bf, items, _report = build(num_keys=100)
        key = next(iter(items))
        with pytest.raises(KeyError):
            bf.try_insert(key, 0)

    def test_insert_fails_without_singleton(self):
        """At high load some new keys find every slot already referenced."""
        bf, _items, _report = build(num_keys=2000, seed=4, capacity=4000)
        rng = random.Random(11)
        failures = 0
        for _ in range(4000):
            key = rng.getrandbits(32)
            if key in bf.shadow:
                continue
            if len(bf) >= bf.capacity:
                break
            if bf.try_insert(key, 1) is None:
                failures += 1
        assert failures > 0, "at high load some inserts must lack singletons"

    def test_insert_respects_capacity(self):
        bf = BloomierFilter(capacity=4, key_bits=32, value_bits=4,
                            rng=random.Random(0))
        bf.setup({1: 1, 2: 2, 3: 3, 4: 0})
        assert bf.try_insert(99, 1) is None

    def test_find_singleton_consistency(self):
        bf, _items, _report = build(num_keys=500, seed=6)
        rng = random.Random(13)
        for _ in range(100):
            key = rng.getrandbits(32)
            if key in bf.shadow:
                continue
            slot = bf.find_singleton(key)
            if slot is not None:
                assert slot in bf.neighborhood(key)


class TestAccounting:
    def test_storage_bits(self):
        bf = BloomierFilter(capacity=1000, key_bits=32, value_bits=10)
        assert bf.storage_bits() == bf.num_slots * 10
        assert bf.num_slots == 3 * (3 * 1000 // 3)

    def test_load_factor(self):
        bf, _items, _report = build(num_keys=100)
        assert bf.load_factor() == pytest.approx(1.0)
