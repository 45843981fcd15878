"""Differential suite for the flat datapath (``repro.core.flatpath``).

The flat pipeline — geometry-sized bucket arrays, packed hash gathers —
must be bit-exact against the scalar Fig. 6 datapath
(``ChiselLPM.lookup``) on the whole batch, over both Index Table
backends, every span 0-6, key widths 16-64, Result-Table widths 8-32,
spillover TCAM overrides, and mid-churn recompiles.  The suite also pins
the degraded paths (the unpacked gather fallback, the true-modulus
fallback), the shard codec's layout, the dtype rules, and fault
injection into bucket words.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ChiselConfig, ChiselLPM
from repro.core.batch import BatchLookup
from repro.core.flatpath import (
    RECORD_ARRAYS,
    FlatSubCellPlan,
    _FusedIndex,
    word_dtype,
)
from repro.faults.inject import FLAT_RECORD_KINDS, corrupt_record_word
from repro.prefix import Prefix, RoutingTable
from repro.workloads import synthetic_table
from repro.workloads.traces import synthesize_trace
from repro.core.subcell import WriteLog
from repro.core.updates import apply_trace

from .conftest import assert_batch_matches_scalar, probe_keys, random_table

BACKENDS = ("bloomier", "fuse")


def build_engine(backend, table, seed=2006, stride=4, next_hop_bits=16):
    config = ChiselConfig(width=table.width, stride=stride, seed=seed,
                          index_backend=backend,
                          next_hop_bits=next_hop_bits)
    return ChiselLPM.build(table, config)


class TestEverySpan:
    """Spans 0-6, including the span-6 inclusive-rank-mask corner."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("span", range(7))
    def test_single_span_table(self, backend, span):
        rng = random.Random(130 + span)
        width = 24
        table = RoutingTable(width=width)
        length = width - span
        for _ in range(80):
            value = rng.getrandbits(length) if length else 0
            table.add(Prefix(value, length, width), rng.randint(1, 200))
        engine = build_engine(backend, table, seed=7 + span)
        assert_batch_matches_scalar(engine, probe_keys(engine, rng))


class TestHypothesisDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           width=st.sampled_from([16, 24, 32, 48, 64]),
           routes=st.integers(min_value=1, max_value=220))
    def test_random_tables(self, backend, seed, width, routes):
        rng = random.Random(seed)
        table = random_table(rng, width, routes)
        engine = build_engine(backend, table, seed=seed & 0xFFFF)
        assert_batch_matches_scalar(engine,
                                    probe_keys(engine, rng, extra=120))


class TestChurnRecompile:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_churn_recompiles_stay_exact(self, backend):
        table = synthetic_table(1_500, seed=11)
        engine = build_engine(backend, table, seed=11)
        rng = random.Random(11)
        trace = synthesize_trace(table, 300, seed=12)
        for start in range(0, 300, 60):
            apply_trace(engine, trace[start:start + 60])
            flat = assert_batch_matches_scalar(
                engine, probe_keys(engine, rng, extra=150))
            assert len(flat._plans) == len(engine.subcells)

    def test_stale_flag_tracks_updates(self):
        table = synthetic_table(400, seed=13)
        engine = build_engine("bloomier", table, seed=13)
        flat = BatchLookup(engine)
        assert not flat.stale
        apply_trace(engine, synthesize_trace(table, 5, seed=14)[:5])
        assert flat.stale


class TestSpillover:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spilled_keys_resolve_identically(self, backend):
        """Engines big enough to park entries in the TCAM: the flat
        spill override must shadow the decode exactly like the scalar
        path."""
        table = synthetic_table(4_000, seed=17)
        engine = build_engine(backend, table, seed=17)
        flat = BatchLookup(engine)
        spilled = [plan for plan in flat._plans if len(plan.spill_keys)]
        rng = random.Random(17)
        keys = probe_keys(engine, rng)
        assert_batch_matches_scalar(engine, keys, flat)
        if spilled:
            # Aim keys straight at every spilled collapsed prefix.
            width = engine.config.width
            aimed = []
            for plan in spilled:
                free = width - plan.base
                for collapsed in plan.spill_keys[:32]:
                    base_key = int(collapsed) << free
                    aimed.append(base_key)
                    aimed.append(base_key | rng.getrandbits(free)
                                 if free else base_key)
            assert_batch_matches_scalar(
                engine, np.array(aimed, dtype=np.uint64), flat)


class TestDegradedPaths:
    """The fallbacks must stay bit-exact, not just the fast path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpacked_gather_fallback(self, backend):
        table = synthetic_table(900, seed=23)
        engine = build_engine(backend, table, seed=23)
        flat = BatchLookup(engine)
        for plan, subcell in zip(flat._plans, engine.subcells):
            assert plan.fused.packed
            # Compile the per-hash tables a wide hash family would need.
            plan.fused = _FusedIndex.from_groups(subcell.index.groups,
                                                 pack=False)
            assert not plan.fused.packed
        assert_batch_matches_scalar(
            engine, probe_keys(engine, random.Random(23)), flat)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_true_modulus_fallback(self, backend):
        table = synthetic_table(900, seed=29)
        engine = build_engine(backend, table, seed=29)
        flat = BatchLookup(engine)
        for plan in flat._plans:
            assert plan.fused.condsub_ok
            plan.fused.condsub_ok = False  # force np.mod
        assert_batch_matches_scalar(
            engine, probe_keys(engine, random.Random(29)), flat)


class TestCodecFlatRoundtrip:
    def test_flat_plans_survive_export_attach(self):
        from repro.router import ForwardingEngine
        from repro.serve import RecompilePolicy, SnapshotRouter
        from repro.shard.codec import SharedSnapshot

        table = synthetic_table(1_200, seed=43)
        fib = ForwardingEngine.from_table(table)
        router = SnapshotRouter(fib, RecompilePolicy())
        snapshot = router._snapshot  # the compiled BatchLookup
        keys = np.array(
            [random.Random(43).getrandbits(table.width)
             for _ in range(3_000)], dtype=np.uint64)
        segment = SharedSnapshot.export(snapshot, 3)
        try:
            attached = SharedSnapshot.attach(segment.name)
            shared = attached.to_lookup()
            assert len(shared._plans) == len(snapshot._plans)
            assert np.array_equal(shared.lookup_batch(keys),
                                  snapshot.lookup_batch(keys))
            attached.close()
        finally:
            segment.retire()


    def test_format_1_segment_refused(self):
        """A segment of image format 1 is refused with the typed error."""
        from multiprocessing import shared_memory

        from repro.shard.codec import (
            SharedSnapshot,
            SnapshotIntegrityError,
            encode_image,
            write_image_into,
        )

        engine = build_engine("bloomier", synthetic_table(300, seed=41),
                              seed=41)
        encoded = encode_image(BatchLookup(engine), 1,
                               magic="chisel-shard-v1")
        segment = shared_memory.SharedMemory(create=True,
                                             size=encoded.total_size)
        try:
            write_image_into(segment.buf, encoded)
            with pytest.raises(SnapshotIntegrityError,
                               match="chisel-shard-v1"):
                SharedSnapshot.attach(segment.name)
        finally:
            segment.close()
            segment.unlink()


class TestRecordFaults:
    """Scrub/injection must locate words inside the bucket arrays."""

    def _plan_with_live_bucket(self):
        table = synthetic_table(600, seed=47)
        engine = build_engine("bloomier", table, seed=47)
        flat = BatchLookup(engine)
        for plan in flat._plans:
            live = np.flatnonzero(plan.bitvectors)
            if live.size:
                return engine, flat, plan, int(live[0])
        pytest.fail("no live bucket found")

    @pytest.mark.parametrize("kind", sorted(FLAT_RECORD_KINDS))
    def test_corrupt_record_word_flips_one_lane(self, kind):
        _engine, _flat, plan, pointer = self._plan_with_live_bucket()
        names = sorted(set(RECORD_ARRAYS.values()))
        before = {name: getattr(plan, name).copy() for name in names}
        record = corrupt_record_word(plan, kind, pointer, bit=3)
        assert record.kind == kind
        changed = [(name, int(index)) for name in names
                   for index in np.flatnonzero(before[name]
                                               != getattr(plan, name))]
        assert changed == [(FLAT_RECORD_KINDS[kind], pointer)]
        if kind == "dirty":
            assert plan.bitvectors[pointer] == 0

    def test_dirty_corruption_changes_answers(self):
        engine, flat, plan, pointer = self._plan_with_live_bucket()
        keys = probe_keys(engine, random.Random(47))
        before = flat.lookup_batch(keys).copy()
        corrupt_record_word(plan, "dirty", pointer)
        after = flat.lookup_batch(keys)
        assert not np.array_equal(before, after), \
            "invalidating a live bucket must change some answer"

    def test_unknown_kind_rejected(self):
        _engine, _flat, plan, pointer = self._plan_with_live_bucket()
        with pytest.raises(ValueError):
            corrupt_record_word(plan, "index", pointer)


class TestFlatLayoutPrimitives:
    def test_bucket_arrays_end_in_a_never_matching_sentinel(self):
        table = synthetic_table(200, seed=53)
        engine = build_engine("bloomier", table, seed=53)
        flat = BatchLookup(engine)
        for plan in flat._plans:
            for name in RECORD_ARRAYS.values():
                array = getattr(plan, name)
                assert array.shape == (plan.capacity + 1,)
                assert array[plan.capacity] == 0

    def test_legacy_view_properties_alias_records(self):
        """Each bucket array holds what the sub-cell's own per-table
        lists (the hardware view) hold, with the dirty and empty states
        folded into a zero bit-vector."""
        table = synthetic_table(200, seed=59)
        engine = build_engine("bloomier", table, seed=59)
        for prefix in list(table.prefixes())[::9]:
            engine.withdraw(prefix)  # parks dirty buckets
        assert engine.dirty_count() > 0
        flat = BatchLookup(engine)
        for subcell, plan in zip(engine.subcells, flat._plans):
            assert (plan.base, plan.span) == (subcell.base, subcell.span)
            filters = [0 if value is None else value
                       for value in subcell.filter_table]
            vectors = [0 if value is None or dirty else vector
                       for value, dirty, vector in zip(
                           subcell.filter_table, subcell.dirty_table,
                           subcell.bv_table)]
            assert plan.filters.tolist() == filters + [0]
            assert plan.bitvectors.tolist() == vectors + [0]
            assert plan.regionptrs.tolist() == list(subcell.region_ptr) + [0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtypes_follow_geometry(self, backend):
        """Each table's dtype comes from the sub-cell's geometry, never
        from the words it holds."""
        table = synthetic_table(2_000, seed=67)
        engine = build_engine(backend, table, seed=67)
        flat = BatchLookup(engine)
        for subcell, plan in zip(engine.subcells, flat._plans):
            value_bits = subcell.index.groups[0].value_bits
            assert plan.fused.table.dtype == word_dtype(value_bits)
            assert plan.filters.dtype == word_dtype(max(1, subcell.base))
            assert plan.bitvectors.dtype == word_dtype(1 << subcell.span)
            assert plan.regionptrs.dtype == np.int32
            assert plan.arena.dtype == np.uint16  # next_hop_bits = 16
        assert word_dtype(1) == np.uint8 and word_dtype(64) == np.uint64
        with pytest.raises(ValueError):
            word_dtype(65)

    def test_result_word_past_next_hop_bits_refused(self):
        """A Result-Table value that does not fit ``next_hop_bits`` is
        refused by name at compile and at patch; it never wraps."""
        table = synthetic_table(300, seed=71)
        engine = build_engine("bloomier", table, seed=71, next_hop_bits=8)
        subcell = next(cell for cell in engine.subcells
                       if cell.result.arena)
        plan = FlatSubCellPlan.compile(subcell, engine.config.width)
        assert plan.arena.dtype == np.uint8
        subcell.result.arena[0] = 256
        with pytest.raises(ValueError, match="Result Table"):
            FlatSubCellPlan.compile(subcell, engine.config.width)
        log = WriteLog()
        log.results.append((0, 1))
        with pytest.raises(ValueError, match="Result Table"):
            plan.patch(subcell, log, np.zeros(1 << 16, np.uint8), 1)

    def test_packed_layout_active_on_standard_builds(self):
        for backend in BACKENDS:
            table = synthetic_table(400, seed=61)
            engine = build_engine(backend, table, seed=61)
            flat = BatchLookup(engine)
            for plan in flat._plans:
                fused = plan.fused
                assert fused.packed
                assert fused.hash_tables.shape == (
                    fused.num_bytes, fused.num_groups * 256)
                assert fused.condsub_ok
                assert len(fused.shifts) == fused.num_hashes
                if backend == "fuse":
                    assert fused.start_shift is not None
                    assert fused.start_tables is None


class TestNextHopWidths:
    """The Result Table at 8 and 32 bits answers like the scalar path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", [8, 32])
    def test_differential_at_next_hop_bits(self, backend, bits):
        rng = random.Random(bits)
        table = RoutingTable(width=32)
        for _ in range(400):
            length = rng.randint(4, 32)
            table.add(Prefix(rng.getrandbits(length), length, 32),
                      rng.randint(1, (1 << bits) - 1))
        engine = build_engine(backend, table, seed=bits,
                              next_hop_bits=bits)
        flat = assert_batch_matches_scalar(engine, probe_keys(engine, rng))
        assert {plan.arena.dtype for plan in flat._plans} == {
            word_dtype(bits)}
