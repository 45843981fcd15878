"""Randomized differential suite: BatchLookup vs the scalar Fig. 6 datapath.

This is the correctness gate for the serving layer (``repro.serve``): a
``SnapshotRouter`` may only serve traffic from a compiled snapshot because
these tests pin the compiled path bit-for-bit to the scalar datapath —
across every span 0-6 (including the span-6 all-ones bit-vector whose
inclusive rank mask used to overflow uint64), spillover TCAM entries,
update churn with recompiles, and dirty/purged maintenance states.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ChiselConfig, ChiselLPM
from repro.core.batch import BatchLookup
from repro.prefix import Prefix, RoutingTable
from repro.workloads import synthetic_table
from repro.workloads.traces import synthesize_trace
from repro.core.updates import ANNOUNCE, apply_trace

from .conftest import assert_batch_matches_scalar, probe_keys, random_table


def shift_region_pointers(batch, delta):
    """Move every compiled Region pointer by ``delta`` (int32 words)."""
    for plan in batch._plans:
        plan.regionptrs[:plan.capacity] += delta


class TestEverySpan:
    """Satellite 1: spans 0-6 with all-ones bit-vectors and max expansions."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("width", [28, 32])
    def test_span_differential(self, stride, width):
        rng = random.Random(stride * 101 + width)
        table = RoutingTable(width=width)
        config = ChiselConfig(width=width, stride=stride, seed=stride)
        engine = ChiselLPM.build(table, config)
        # One rel-0 original per sub-cell (all-ones bit-vector: every
        # expansion set) plus rel-span originals (single-bit vectors).
        for cell in engine.plan:
            for _ in range(4):
                value = rng.getrandbits(cell.base) if cell.base else 0
                table.add(Prefix(value, cell.base, width), rng.randint(1, 99))
                top = cell.base + cell.span
                value = rng.getrandbits(top) if top else 0
                table.add(Prefix(value, top, width), rng.randint(1, 99))
        engine = ChiselLPM.build(table, config)
        spans = {cell.span for cell in engine.subcells}
        assert spans & {stride}, "expected at least one full-stride sub-cell"
        assert_batch_matches_scalar(engine, probe_keys(engine, rng))

    def test_span6_all_ones_vector_expansion63(self):
        """The uint64 rank-mask overflow regression, pinned explicitly."""
        table = RoutingTable(width=32)
        table.add(Prefix(0b1010101, 7, 32), 5)   # rel 0 in [7..13] -> all-ones
        table.add(Prefix(0b0110011, 7, 32), 7)
        engine = ChiselLPM.build(table, ChiselConfig(stride=6, seed=1))
        assert any(cell.span == 6 for cell in engine.subcells)
        subcell = next(c for c in engine.subcells if c.base == 7)
        bucket = subcell.buckets[0b1010101]
        assert bucket.bit_vector() == (1 << 64) - 1
        keys = []
        for value in (0b1010101, 0b0110011):
            for expansion in (0, 1, 31, 62, 63):  # 63 shifts the naive mask by 64
                keys.append((value << 25) | (expansion << 19) | 12345)
        assert_batch_matches_scalar(engine, keys)

    def test_width64_differential(self):
        rng = random.Random(64)
        table = random_table(rng, 64, 150)
        engine = ChiselLPM.build(table, ChiselConfig(width=64, stride=6, seed=3))
        assert_batch_matches_scalar(engine, probe_keys(engine, rng))


class TestOutOfRangeAddresses:
    """Satellite 2: out-of-range Result-Table addresses are misses."""

    def test_empty_engine_all_miss(self):
        engine = ChiselLPM.build(RoutingTable(width=32))
        batch = BatchLookup(engine)
        rng = random.Random(2)
        keys = [rng.getrandbits(32) for _ in range(256)]
        answers = batch.lookup_batch(keys)
        assert (answers == -1).all()
        assert_batch_matches_scalar(engine, keys, batch=batch)

    def test_empty_subcell_regression(self):
        """A table leaving whole sub-cells empty (empty arenas) never
        fabricates next hop 0 for keys landing in them."""
        table = RoutingTable(width=32)
        table.add(Prefix(0b10, 2, 32), 3)  # only the shortest cell populated
        engine = ChiselLPM.build(table, ChiselConfig(seed=4))
        empty_cells = [c for c in engine.subcells if not c.buckets]
        assert empty_cells, "expected empty sub-cells under full tiling"
        rng = random.Random(4)
        keys = [rng.getrandbits(32) for _ in range(512)]
        assert_batch_matches_scalar(engine, keys)

    def test_corrupted_region_pointer_is_miss_not_arena0(self, small_table):
        """With the old np.clip, a wild address clamped onto the arena and
        returned a plausible next hop; it must read as a miss."""
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=5))
        batch = BatchLookup(engine)
        rng = random.Random(5)
        keys = probe_keys(engine, rng, extra=0)[:300]
        hits = batch.lookup_batch(keys)
        assert (hits != -1).any()
        shift_region_pointers(batch, 1_000_000)
        answers = batch.lookup_batch(keys)
        assert (answers == -1).all()

    def test_negative_address_is_miss(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=6))
        batch = BatchLookup(engine)
        shift_region_pointers(batch, -1_000_000)
        rng = random.Random(6)
        keys = [rng.getrandbits(32) for _ in range(200)]
        assert (batch.lookup_batch(keys) == -1).all()


class TestStaleness:
    """Satellite 3: every table mutation moves the staleness counter."""

    def test_stale_after_withdraw_purge(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=7))
        prefixes = list(small_table.prefixes())
        for prefix in prefixes[:40]:
            engine.withdraw(prefix)
        assert engine.dirty_count() > 0
        batch = BatchLookup(engine)  # compiled with dirty entries parked
        assert not batch.stale
        purged = engine.purge_dirty()
        assert purged > 0
        assert batch.stale, "purge mutated tables but snapshot stayed fresh"

    def test_stale_after_maintenance(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=8))
        for prefix in list(small_table.prefixes())[:25]:
            engine.withdraw(prefix)
        batch = BatchLookup(engine)
        engine.maintenance()
        assert batch.stale

    def test_stale_after_subcell_grow(self, small_table):
        """A capacity-doubling rebuild rewrites every hardware word of the
        sub-cell; a snapshot compiled before it must read stale.  The seed
        tree copied ``words_written`` verbatim into the grown sub-cell, so
        the rebuild was invisible to ``BatchLookup.stale``."""
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=10))
        batch = BatchLookup(engine)
        assert not batch.stale
        engine._grow_subcell(engine.subcells[0])
        assert batch.stale, (
            "sub-cell grow rebuilt the tables but the snapshot stayed fresh"
        )

    def test_grow_through_announce_flips_stale_and_stays_exact(self):
        """End-to-end: announcing past a sub-cell's capacity triggers the
        RESETUP grow; compiled snapshots must notice and a recompile must
        agree with the scalar path."""
        rng = random.Random(11)
        engine = ChiselLPM.build(RoutingTable(width=32), ChiselConfig(seed=11))
        target = engine.subcell_for(Prefix(0, 28, 32))
        original_capacity = target.capacity
        batch = BatchLookup(engine)
        for j in range(original_capacity + 1):
            engine.announce(Prefix(j << 4, 28, 32), (j % 200) + 1)
        grown = engine.subcell_for(Prefix(0, 28, 32))
        assert grown.capacity > original_capacity
        assert batch.stale
        keys = probe_keys(engine, rng)
        assert_batch_matches_scalar(engine, keys)

    def test_differential_across_dirty_and_purged_states(self, small_table):
        rng = random.Random(9)
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=9))
        withdrawn = list(small_table.prefixes())[::7]
        for prefix in withdrawn:
            engine.withdraw(prefix)
        keys = probe_keys(engine, rng)
        keys += [p.network_int() for p in withdrawn]
        assert_batch_matches_scalar(engine, keys)  # dirty entries parked
        engine.purge_dirty()
        assert_batch_matches_scalar(engine, keys)  # physically retired
        engine.maintenance()
        assert_batch_matches_scalar(engine, keys)  # drained + compacted


class TestSpillover:
    """Satellite 4: the vectorized spillover override stays exact."""

    @staticmethod
    def _spill_keys(engine, count):
        """Move ``count`` encoded keys into spillover TCAMs — exactly the
        state a failed Bloomier setup leaves (§4.1): the key is absent
        from its group's encoding and the TCAM answer is authoritative."""
        spilled = 0
        for subcell in engine.subcells:
            index = subcell.index
            for value in list(subcell.buckets)[:2]:
                pointer = index.get(value)
                if pointer is None or spilled >= count:
                    continue
                group_index = index.group_of(value)
                group = index._groups[group_index]
                if value not in group.shadow:
                    continue
                survivors = dict(group.shadow)
                del survivors[value]
                group.setup(survivors)
                index.spillover.insert(value, pointer)
                index._spilled_by_group[group_index][value] = pointer
                spilled += 1
        return spilled

    def test_spillover_differential(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=16))
        assert self._spill_keys(engine, 6) >= 4
        batch = BatchLookup(engine)
        assert sum(len(plan.spill_keys) for plan in batch._plans) >= 4
        rng = random.Random(17)
        assert_batch_matches_scalar(engine, probe_keys(engine, rng),
                                    batch=batch)

    def test_spillover_after_churn(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=18))
        assert self._spill_keys(engine, 4)
        rng = random.Random(18)
        for prefix in list(small_table.prefixes())[:10]:
            engine.withdraw(prefix)
        for _ in range(10):
            engine.announce(Prefix(rng.getrandbits(24), 24, 32),
                            rng.randint(1, 50))
        assert_batch_matches_scalar(engine, probe_keys(engine, rng))

    def test_spillover_drain_moves_staleness(self, small_table):
        """Maintenance draining the TCAM mutates the Index Table; a
        compiled snapshot must notice."""
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=19))
        assert self._spill_keys(engine, 4)
        batch = BatchLookup(engine)
        report = engine.maintenance()
        assert report["spillover_drained"] > 0
        assert batch.stale
        assert_batch_matches_scalar(engine, probe_keys(
            engine, random.Random(19), extra=100))

    @staticmethod
    def _aim_at(engine, subcell, collapsed, rng):
        """Keys whose collapse lands exactly on ``collapsed``."""
        free = engine.config.width - subcell.base
        base_key = collapsed << free
        if not free:
            return [base_key]
        return [base_key, base_key | ((1 << free) - 1),
                base_key | rng.getrandbits(free)]

    def _each_spilled(self, engine):
        """(sub-cell, spill map, key, bucket row) per spilled key; the
        TCAM holds the row local to the key's group run."""
        for subcell in engine.subcells:
            for spills in subcell.index._spilled_by_group:
                for value in list(spills):
                    yield subcell, spills, value, subcell.index.get(value)

    def test_spilled_pointer_on_dirty_bucket(self, small_table):
        """A TCAM hit whose bucket was lazily withdrawn (dirty) must be
        a miss in the batch datapath, exactly as the scalar check orders
        it: the override replaces the pointer, the dirty bit still
        vetoes the answer."""
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=20))
        assert self._spill_keys(engine, 6) >= 4
        rng = random.Random(20)
        aimed = []
        for subcell, _spills, value, pointer in self._each_spilled(engine):
            subcell.dirty_table[pointer] = True
            aimed.extend(self._aim_at(engine, subcell, value, rng))
        assert aimed, "setup must have parked spilled keys"
        keys = aimed + probe_keys(engine, rng, extra=60)
        assert_batch_matches_scalar(engine, keys)

    def test_spilled_pointer_out_of_range(self, small_table):
        """A poisoned TCAM entry pointing past the bucket table must be
        filtered as a miss — never clamped onto bucket 0 — on the
        scalar and batch paths alike."""
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=21))
        assert self._spill_keys(engine, 6) >= 4
        rng = random.Random(21)
        aimed = []
        for subcell, spills, value, _ptr in self._each_spilled(engine):
            bad_pointer = subcell.capacity + 7
            subcell.index.spillover.insert(value, bad_pointer)
            spills[value] = bad_pointer
            aimed.extend(self._aim_at(engine, subcell, value, rng))
        assert aimed, "setup must have parked spilled keys"
        keys = aimed + probe_keys(engine, rng, extra=60)
        assert_batch_matches_scalar(engine, keys)


class TestChurnRecompile:
    """Update churn + recompile: the snapshot lifecycle stays exact."""

    def test_trace_churn_differential(self, small_table):
        rng = random.Random(20)
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=20))
        trace = synthesize_trace(small_table, 600, seed=20)
        for start in range(0, len(trace), 150):
            window = trace[start:start + 150]
            apply_trace(engine, window)
            touched = [op.prefix.network_int() | rng.getrandbits(
                32 - op.prefix.length) if op.prefix.length < 32
                else op.prefix.network_int() for op in window]
            assert_batch_matches_scalar(
                engine, probe_keys(engine, rng, extra=100) + touched
            )

    def test_stale_flag_over_trace(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=21))
        trace = synthesize_trace(small_table, 80, seed=21)
        batch = BatchLookup(engine)
        mutated = False
        for op in trace:
            if op.op == ANNOUNCE:
                mutated |= engine.announce(op.prefix, op.next_hop) is not None
            else:
                mutated |= engine.withdraw(op.prefix) is not None
        assert mutated and batch.stale
        assert not BatchLookup(engine).stale


# -- hypothesis: arbitrary tables, widths <= 64 ------------------------------

@st.composite
def table_and_config(draw):
    width = draw(st.integers(min_value=4, max_value=64))
    stride = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    routes = draw(st.integers(min_value=0, max_value=80))
    rng = random.Random(seed)
    table = random_table(rng, width, routes)
    return table, ChiselConfig(width=width, stride=stride, seed=seed), seed


@given(table_and_config())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_differential_random_tables(params):
    table, config, seed = params
    engine = ChiselLPM.build(table, config)
    rng = random.Random(seed ^ 0xBEEF)
    assert_batch_matches_scalar(engine, probe_keys(engine, rng, extra=150))


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_differential_random_churn(seed):
    rng = random.Random(seed)
    table = synthetic_table(300, seed=seed % 97)
    engine = ChiselLPM.build(table, ChiselConfig(seed=seed & 0xFFFF))
    prefixes = list(table.prefixes())
    for _ in range(60):
        prefix = prefixes[rng.randrange(len(prefixes))]
        if rng.random() < 0.5:
            engine.withdraw(prefix)
        else:
            engine.announce(prefix, rng.randint(1, 200))
    if rng.random() < 0.5:
        engine.purge_dirty()
    assert_batch_matches_scalar(engine, probe_keys(engine, rng, extra=100))
