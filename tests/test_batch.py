"""Tests for the numpy-vectorized batch-lookup path."""

import dataclasses
import gzip
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core import ChiselConfig, ChiselLPM
from repro.core.batch import BatchLookup
from repro.core.flatpath import popcount64
from repro.prefix import Prefix
from repro.workloads import ipv6_table

from .conftest import sample_keys


@pytest.fixture
def compiled(small_table):
    engine = ChiselLPM.build(small_table, ChiselConfig(seed=33))
    return engine, BatchLookup(engine)


class TestPopcount:
    def test_matches_python(self):
        values = np.array([0, 1, 0xFF, 0xF0F0, (1 << 64) - 1, 0x8000000000000001],
                          dtype=np.uint64)
        expected = [bin(int(v)).count("1") for v in values]
        assert list(popcount64(values)) == expected


class TestBatchCorrectness:
    def test_matches_scalar_everywhere(self, compiled, small_table, rng):
        engine, batch = compiled
        keys = sample_keys(small_table, rng, 3000)
        expected = [engine.lookup(key) for key in keys]
        assert batch.lookup_many(keys) == expected

    def test_misses_marked(self, compiled, rng):
        engine, batch = compiled
        answers = batch.lookup_batch([0xFFFFFFFF])
        assert answers[0] == engine.lookup(0xFFFFFFFF) or answers[0] == -1

    def test_empty_batch(self, compiled):
        _engine, batch = compiled
        assert batch.lookup_batch([]).shape == (0,)

    def test_numpy_input_accepted(self, compiled, small_table, rng):
        engine, batch = compiled
        keys = np.array(sample_keys(small_table, rng, 200), dtype=np.uint64)
        assert batch.lookup_many(keys) == [engine.lookup(int(k)) for k in keys]

    def test_after_updates_via_recompile(self, compiled, small_table, rng):
        engine, batch = compiled
        prefix = Prefix.from_string("203.0.113.0/24")
        engine.announce(prefix, 99)
        assert batch.stale
        fresh = BatchLookup(engine)
        key = prefix.network_int() | 9
        assert fresh.lookup_many([key]) == [99]

    def test_with_spillover_entries(self):
        """Engines whose Bloomier setup spilled keys still batch-match."""
        import random

        from repro.prefix import RoutingTable

        rng = random.Random(16)
        table = RoutingTable(width=32)
        for index in range(64):
            table.add(Prefix(rng.getrandbits(24), 24, 32), index % 50 + 1)
        config = ChiselConfig(seed=16, max_rehash=0, partitions=1)
        engine = ChiselLPM.build(table, config)
        batch = BatchLookup(engine)
        keys = [p.network_int() | 3 for p in table.prefixes()]
        assert batch.lookup_many(keys) == [engine.lookup(k) for k in keys]


class TestPickledRemovedFields:
    """Configs and an engine pickled while ``ChiselConfig`` still had its
    two batch-datapath selector fields (one config picks the per-table
    pipeline, one the JIT kernel) must keep loading and serving."""

    FIXTURE = (Path(__file__).parent / "fixtures"
               / "removed_datapath_fields.pkl.gz")

    @pytest.fixture(scope="class")
    def pickled(self):
        with gzip.open(self.FIXTURE, "rb") as handle:
            return pickle.load(handle)

    def test_configs_load_equal_to_a_fresh_config(self, pickled):
        field_names = {field.name
                       for field in dataclasses.fields(ChiselConfig)}
        assert len(field_names) == 13
        for config in pickled["configs"]:
            assert config == ChiselConfig(width=8, partitions=2)
            stale = set(vars(config)) - field_names
            assert len(stale) == 2, stale  # unused plain attributes

    def test_engine_batch_matches_scalar(self, pickled):
        engine = pickled["engine"]
        keys = np.arange(256, dtype=np.uint64)  # every 8-bit key
        expected = [engine.lookup(int(key)) for key in keys]
        assert BatchLookup(engine).lookup_many(keys) == expected
        assert any(hop is not None for hop in expected)


class TestBatchRestrictions:
    def test_ipv6_rejected(self):
        table = ipv6_table(50, seed=1)
        engine = ChiselLPM.build(table, ChiselConfig(width=128, seed=1))
        with pytest.raises(ValueError):
            BatchLookup(engine)

    def test_stale_flag_initially_false(self, compiled):
        _engine, batch = compiled
        assert not batch.stale


class TestBatchPerformance:
    def test_faster_than_scalar(self, small_table, rng):
        import time

        engine = ChiselLPM.build(small_table, ChiselConfig(seed=34))
        batch = BatchLookup(engine)
        keys = sample_keys(small_table, rng, 5000)
        start = time.perf_counter()
        for key in keys:
            engine.lookup(key)
        scalar_time = time.perf_counter() - start
        start = time.perf_counter()
        batch.lookup_batch(keys)
        batch_time = time.perf_counter() - start
        assert batch_time < scalar_time  # typically ~10x better
