"""Property-based tests (hypothesis) on core invariants.

These are the heavy correctness guns: every LPM scheme in the repository
must agree with the binary-trie oracle on arbitrary tables and keys, the
Bloomier filter must be exactly a function table, and buckets/allocators
must hold their structural invariants under arbitrary operation sequences.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.apps.ranges import prefixes_cover, range_to_prefixes
from repro.baselines import BinaryTrie, NaiveHashLPM, TreeBitmap
from repro.bloomier import BloomierFilter
from repro.core import ChiselConfig, ChiselLPM
from repro.core.alloc import BlockAllocator
from repro.core.bitvector import Bucket
from repro.prefix import (
    Prefix,
    RoutingTable,
    expansion_counts,
    optimal_targets,
    targets_for_stride,
)


# -- strategies ---------------------------------------------------------------

@st.composite
def prefixes(draw, width=32, min_length=0):
    length = draw(st.integers(min_value=min_length, max_value=width))
    value = draw(st.integers(min_value=0, max_value=(1 << length) - 1)) if length else 0
    return Prefix(value, length, width)


@st.composite
def routing_tables(draw, width=32, max_routes=60):
    routes = draw(st.lists(
        st.tuples(prefixes(width=width), st.integers(1, 250)),
        min_size=1, max_size=max_routes,
    ))
    table = RoutingTable(width=width)
    for prefix, next_hop in routes:
        table.add(prefix, next_hop)
    return table


keys32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


# -- prefix algebra -------------------------------------------------------------

class TestPrefixProperties:
    @given(prefixes(), st.data())
    def test_collapse_then_contains(self, prefix, data):
        new_length = data.draw(st.integers(0, prefix.length))
        assert prefix.collapse(new_length).contains(prefix)

    @given(prefixes(min_length=1), st.data())
    def test_expansion_partition(self, prefix, data):
        """Expansions are disjoint and cover exactly the original's keys."""
        extra = data.draw(st.integers(0, min(4, prefix.width - prefix.length)))
        expanded = list(prefix.expand(prefix.length + extra))
        assert len(expanded) == 1 << extra
        assert len(set(expanded)) == len(expanded)
        assert all(prefix.contains(e) for e in expanded)

    @given(prefixes(), keys32)
    def test_covers_agrees_with_from_key(self, prefix, key):
        assert prefix.covers(key) == (
            Prefix.from_key(key, prefix.length) == prefix
        )

    @given(prefixes(min_length=1), st.data())
    def test_collapse_roundtrip_value(self, prefix, data):
        base = data.draw(st.integers(0, prefix.length))
        collapsed = prefix.collapse(base)
        suffix = prefix.suffix_bits(base)
        rebuilt = (collapsed.value << (prefix.length - base)) | suffix
        assert rebuilt == prefix.value


# -- cross-scheme LPM equivalence --------------------------------------------------

class TestLPMEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(routing_tables(), st.lists(keys32, min_size=1, max_size=40))
    def test_chisel_equals_trie(self, table, keys):
        engine = ChiselLPM.build(table, ChiselConfig(seed=1, partitions=2))
        oracle = BinaryTrie.from_table(table)
        probes = list(keys)
        for prefix in table.prefixes():
            probes.append(prefix.network_int())
        for key in probes:
            assert engine.lookup(key) == oracle.lookup(key)

    @settings(max_examples=30, deadline=None)
    @given(routing_tables(), st.lists(keys32, min_size=1, max_size=40))
    def test_tree_bitmap_equals_trie(self, table, keys):
        tree = TreeBitmap.from_table(table, stride=4)
        oracle = BinaryTrie.from_table(table)
        for key in keys:
            assert tree.lookup(key) == oracle.lookup(key)

    @settings(max_examples=20, deadline=None)
    @given(routing_tables(), st.lists(keys32, min_size=1, max_size=30))
    def test_naive_hash_equals_trie(self, table, keys):
        lpm = NaiveHashLPM.build(table, seed=1)
        oracle = BinaryTrie.from_table(table)
        for key in keys:
            assert lpm.lookup(key) == oracle.lookup(key)


# -- Bloomier invariants --------------------------------------------------------------

class TestBloomierProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.integers(0, (1 << 32) - 1), min_size=1, max_size=300),
        st.integers(0, 1 << 16),
    )
    def test_exact_function_table(self, keys, seed):
        items = {key: (key * 7 + 3) & 0xFFF for key in keys}
        bf = BloomierFilter(
            capacity=len(items), key_bits=32, value_bits=12,
            rng=random.Random(seed),
        )
        report = bf.setup(items)
        for key in keys:
            if key not in report.spilled:
                assert bf.lookup(key) == items[key]

    @settings(max_examples=15, deadline=None)
    @given(
        st.sets(st.integers(0, (1 << 32) - 1), min_size=10, max_size=200),
        st.integers(0, 1 << 16),
    )
    def test_inserts_never_corrupt(self, keys, seed):
        ordered = sorted(keys)
        half = len(ordered) // 2
        base = {key: key & 0xFF for key in ordered[:half]}
        bf = BloomierFilter(
            capacity=len(ordered), key_bits=32, value_bits=8,
            rng=random.Random(seed),
        )
        bf.setup(base)
        added = {}
        for key in ordered[half:]:
            if bf.try_insert(key, key & 0xFF) is not None:
                added[key] = key & 0xFF
        for key, value in {**base, **added}.items():
            assert bf.lookup(key) == value


# -- bucket and allocator invariants ------------------------------------------------------

class TestBucketProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 15), st.integers(1, 99)),
            min_size=0, max_size=12,
        )
    )
    def test_region_matches_winners(self, entries):
        """For any bucket contents: popcount-indexed region = per-expansion
        winner next hops, and ones() = popcount(bit_vector())."""
        bucket = Bucket(base=8, span=4, pointer=0)
        for rel_length, suffix, next_hop in entries:
            bucket.add(8 + rel_length, suffix & ((1 << rel_length) - 1), next_hop)
        vector = bucket.bit_vector()
        region = bucket.region()
        assert bucket.ones() == bin(vector).count("1") == len(region)
        rank = 0
        for expansion in range(16):
            if (vector >> expansion) & 1:
                assert region[rank] == bucket.next_hop_for(expansion)
                rank += 1
            else:
                assert bucket.next_hop_for(expansion) is None

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_range_to_prefixes_exact_cover(self, data):
        """Any 16-bit range: the prefix set covers exactly [low, high] and
        respects the 2W-2 size bound."""
        low = data.draw(st.integers(0, (1 << 16) - 1))
        high = data.draw(st.integers(low, (1 << 16) - 1))
        prefixes = range_to_prefixes(low, high, 16)
        assert len(prefixes) <= 2 * 16 - 2
        probes = {low, high, (low + high) // 2}
        if low > 0:
            probes.add(low - 1)
        if high < (1 << 16) - 1:
            probes.add(high + 1)
        probes.update(data.draw(st.lists(st.integers(0, (1 << 16) - 1),
                                         max_size=8)))
        for value in probes:
            assert prefixes_cover(prefixes, value) == (low <= value <= high)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(1, 32), st.integers(1, 5000),
                           min_size=1, max_size=12))
    def test_optimal_targets_beat_stride_grouping(self, histogram):
        """The DP's expansion cost never exceeds the stride-grouping
        heuristic's, for any length histogram."""
        table = RoutingTable(width=32)
        value = 0
        for length, count in histogram.items():
            for _ in range(min(count, 60)):  # cap for test speed
                table.add(Prefix(value % (1 << length), length, 32), 1)
                value += 2654435761
        stride_targets = targets_for_stride(sorted(histogram), 4)
        best_targets = optimal_targets(
            table.stats().length_histogram, len(stride_targets)
        )
        assert max(best_targets) >= max(histogram)
        stride_cost, _n = expansion_counts(table, stride_targets)
        best_cost, _n = expansion_counts(table, best_targets)
        assert best_cost <= stride_cost

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=60), st.data())
    def test_allocator_blocks_disjoint(self, sizes, data):
        """Live blocks never overlap, under arbitrary alloc/free interleaving."""
        alloc = BlockAllocator()
        live = {}
        for index, size in enumerate(sizes):
            pointer = alloc.allocate(size)
            block = alloc.block_size(size)
            for existing, (_s, existing_block) in live.items():
                assert pointer + block <= existing or existing + existing_block <= pointer
            live[pointer] = (size, block)
            if live and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(sorted(live)))
                victim_size, _block = live.pop(victim)
                alloc.free(victim, victim_size)
