"""Batch entry-point normalization: every layer, same contract.

The bugfix sweep this suite pins: ``BatchLookup.lookup_batch`` used to
crash on 0-d input (``len()`` of a scalar) and raise an opaque
``OverflowError`` from deep inside numpy on negative Python ints.  Every
batch entry point — core ``BatchLookup``, the serving ``SnapshotRouter``,
the shard worker loop, and the ``ShardCoordinator`` — now routes through
``normalize_keys``: scalars and n-d input flatten to 1-D, and negative /
oversized / non-integer keys raise a clear ``ValueError`` naming the
offending value, *before* anything reaches the datapath (or a worker
pipe).  So do keys wider than the engine: the scalar path drops their
high bits, and the batch path used to answer them as misses.
"""

import random

import numpy as np
import pytest

from repro.core import ChiselConfig, ChiselLPM
from repro.core.batch import BatchLookup, normalize_keys
from repro.router import ForwardingEngine
from repro.serve import RecompilePolicy, SnapshotRouter
from repro.shard import ShardCoordinator
from repro.shard.worker import RESULT_ERROR, TASK_BATCH
from repro.workloads import synthetic_table


def build_engine(size=300, seed=67):
    table = synthetic_table(size, seed=seed)
    config = ChiselConfig(width=table.width, stride=4, seed=seed)
    return table, ChiselLPM.build(table, config)


class TestNormalizeKeys:
    """The shared normalizer itself (unit level)."""

    def test_scalar_yields_one_element(self):
        out = normalize_keys(7)
        assert out.shape == (1,)
        assert out.dtype == np.uint64
        assert int(out[0]) == 7

    def test_zero_d_array_yields_one_element(self):
        out = normalize_keys(np.uint64(9))
        assert out.shape == (1,)
        assert int(out[0]) == 9

    def test_nested_input_is_flattened(self):
        out = normalize_keys([[1, 2], [3, 4]])
        assert out.shape == (4,)
        assert out.tolist() == [1, 2, 3, 4]

    def test_empty_input(self):
        assert normalize_keys([]).shape == (0,)
        assert normalize_keys([]).dtype == np.uint64

    def test_uint64_array_passes_through_unchanged(self):
        keys = np.array([1, 2, 3], dtype=np.uint64)
        assert normalize_keys(keys) is keys

    def test_signed_array_converts_when_non_negative(self):
        out = normalize_keys(np.array([5, 6], dtype=np.int32))
        assert out.dtype == np.uint64
        assert out.tolist() == [5, 6]

    def test_full_width_keys_stay_exact(self):
        """Python ints past 2**53 must not round through float64."""
        exact = [2**64 - 1, 2**63 + 13, 2**53 + 1]
        out = normalize_keys(exact)
        assert [int(value) for value in out] == exact

    def test_negative_python_int_raises_value_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_keys([3, -1, 5])

    def test_negative_scalar_raises_value_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_keys(-7)

    def test_negative_signed_array_raises_value_error(self):
        """Signed arrays used to wrap silently to huge uint64 keys."""
        with pytest.raises(ValueError, match="non-negative"):
            normalize_keys(np.array([1, -2], dtype=np.int64))

    def test_oversized_key_raises_value_error(self):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            normalize_keys([1, 2**64])

    def test_key_wider_than_width_raises_value_error(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            normalize_keys([1, 2**32], 32)
        for keys in (np.array([5, 1 << 40], dtype=np.uint64),
                     np.array([5, 1 << 40], dtype=np.int64)):
            with pytest.raises(ValueError, match=str(1 << 40)):
                normalize_keys(keys, 32)
        assert normalize_keys([2**32 - 1], 32).tolist() == [2**32 - 1]

    def test_float_array_raises_value_error(self):
        with pytest.raises(ValueError, match="integer"):
            normalize_keys(np.array([1.5, 2.0]))

    def test_bool_input_raises_value_error(self):
        with pytest.raises(ValueError):
            normalize_keys([True, False])

    def test_string_input_raises_value_error(self):
        with pytest.raises(ValueError):
            normalize_keys(["10.0.0.1"])


class TestBatchLookupEntryPoint:
    def test_scalar_key_matches_scalar_lookup(self):
        _table, engine = build_engine()
        lookup = BatchLookup(engine)
        rng = random.Random(67)
        for _ in range(20):
            key = rng.getrandbits(engine.config.width)
            answer = engine.lookup(key)
            expected = -1 if answer is None else int(answer)
            got = lookup.lookup_batch(key)  # 0-d entry: used to crash
            assert got.shape == (1,)
            assert int(got[0]) == expected

    def test_negative_key_is_value_error_not_overflow(self):
        _table, engine = build_engine()
        lookup = BatchLookup(engine)
        try:
            lookup.lookup_batch([1, -3])
        except ValueError as error:
            assert "non-negative" in str(error)
        else:
            pytest.fail("negative key must raise ValueError")

    def test_oversized_key_is_value_error(self):
        _table, engine = build_engine()
        lookup = BatchLookup(engine)
        with pytest.raises(ValueError):
            lookup.lookup_batch([2**64 + 5])

    def test_key_wider_than_engine_is_value_error(self):
        """Keys under table routes with bit 32, 40 or 63 set: the scalar
        path drops those bits and answers the route; the batch path
        answered -1.  They are refused instead."""
        table, engine = build_engine()
        lookup = BatchLookup(engine)
        for prefix, _hop in list(table)[:20]:
            for bit in (32, 40, 63):
                key = prefix.network_int() | (1 << bit)
                assert engine.lookup(key) is not None
                with pytest.raises(ValueError, match=str(key)):
                    lookup.lookup_batch([key])

    def test_two_d_batch_is_flattened(self):
        _table, engine = build_engine()
        lookup = BatchLookup(engine)
        rng = random.Random(68)
        keys = [rng.getrandbits(engine.config.width) for _ in range(8)]
        grid = np.array(keys, dtype=np.uint64).reshape(2, 4)
        assert np.array_equal(lookup.lookup_batch(grid),
                              lookup.lookup_batch(keys))


class TestServeEntryPoint:
    def _router(self):
        table = synthetic_table(300, seed=71)
        fib = ForwardingEngine.from_table(table)
        return table, SnapshotRouter(fib, RecompilePolicy())

    def test_scalar_key_served(self):
        _table, router = self._router()
        out = router.lookup_batch(5)
        assert out.shape == (1,)

    def test_negative_key_rejected_before_serving(self):
        _table, router = self._router()
        with pytest.raises(ValueError, match="non-negative"):
            router.lookup_batch([-1])

    def test_key_wider_than_engine_rejected(self):
        _table, router = self._router()
        with pytest.raises(ValueError, match="2\\*\\*32"):
            router.lookup_batch([7, 1 << 40])

    def test_float_batch_rejected(self):
        _table, router = self._router()
        with pytest.raises(ValueError, match="integer"):
            router.lookup_batch(np.array([1.25]))


class TestCoordinatorEntryPoint:
    def _fleet(self):
        table = synthetic_table(400, seed=73)
        fib = ForwardingEngine.from_table(table)
        router = SnapshotRouter(fib, RecompilePolicy())
        return table, router

    def test_bad_batches_rejected_before_enqueue_and_fleet_survives(self):
        table, router = self._fleet()
        rng = random.Random(73)
        keys = np.array(
            [rng.getrandbits(table.width) for _ in range(500)],
            dtype=np.uint64)
        with ShardCoordinator(router, workers=1) as coordinator:
            with pytest.raises(ValueError, match="non-negative"):
                coordinator.lookup_batch([4, -4])
            with pytest.raises(ValueError):
                coordinator.lookup_batch([2**64])
            # The rejection happened before any task went to a worker: the
            # fleet still answers and a scalar entry normalizes.
            assert np.array_equal(coordinator.lookup_batch(keys),
                                  router.lookup_batch(keys))
            assert coordinator.lookup_batch(int(keys[0])).shape == (1,)

    def test_wide_key_rejected_before_enqueue(self):
        table, router = self._fleet()
        keys = np.array([random.Random(74).getrandbits(table.width)
                         for _ in range(200)], dtype=np.uint64)
        with ShardCoordinator(router, workers=1) as coordinator:
            with pytest.raises(ValueError, match="2\\*\\*32"):
                coordinator.lookup_batch([4, 1 << 32])
            assert np.array_equal(coordinator.lookup_batch(keys),
                                  router.lookup_batch(keys))

    @staticmethod
    def _error_from_worker(coordinator, task):
        """Send ``task`` straight down worker 0's pipe, bypassing the
        coordinator's normalization; the RESULT_ERROR detail it answers."""
        pipe = coordinator._pipes[0]
        pipe.send(task)
        seen = []
        while pipe.poll(5):
            seen.append(pipe.recv())
            if seen[-1][0] == RESULT_ERROR:
                return seen[-1][1]
        pytest.fail(f"no RESULT_ERROR: {seen!r}")

    def test_worker_refuses_a_wide_key(self):
        """A key wider than the engine sent straight down a worker's
        pipe surfaces as RESULT_ERROR(ValueError)."""
        _table, router = self._fleet()
        with ShardCoordinator(router, workers=1) as coordinator:
            wide = np.array([3, 1 << 33], dtype=np.uint64)
            error_repr = self._error_from_worker(
                coordinator, (TASK_BATCH, 998, wide, []))
            assert "ValueError" in error_repr
            assert "2**32" in error_repr

    def test_worker_normalizes_defense_in_depth(self):
        """A malformed batch sent straight down a worker's pipe —
        bypassing the coordinator's normalization — must surface as a
        clear ValueError via RESULT_ERROR, not an OverflowError."""
        _table, router = self._fleet()
        with ShardCoordinator(router, workers=1) as coordinator:
            error_repr = self._error_from_worker(
                coordinator, (TASK_BATCH, 999, [3, -9], []))
            assert "ValueError" in error_repr
            assert "non-negative" in error_repr
            assert "OverflowError" not in error_repr
