"""Tests for engine checkpoint/restore and CLI integration."""

import io
import pickle

import pytest

from repro.cli import main
from repro.core import ChiselConfig, ChiselLPM
from repro.core.image import HardwareImage
from repro.core.subcell import ChiselSubCell
from repro.faults import FaultInjector
from repro.integrity import IntegrityError
from repro.prefix import Prefix
from repro.router import ForwardingEngine
from repro.verify import apply_update
from repro.workloads import synthetic_table
from repro.workloads.io import save_table
from repro.workloads.traces import synthesize_trace

from .conftest import sample_keys


class TestPrefixPickle:
    def test_roundtrip(self):
        prefix = Prefix.from_string("10.1.0.0/16")
        clone = pickle.loads(pickle.dumps(prefix))
        assert clone == prefix
        assert clone.width == 32

    def test_still_immutable_after_unpickle(self):
        clone = pickle.loads(pickle.dumps(Prefix.from_string("10.0.0.0/8")))
        with pytest.raises(AttributeError):
            clone.value = 11


class TestEngineCheckpoint:
    def test_save_load_lookup_identical(self, small_table, tmp_path, rng):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=95))
        path = tmp_path / "engine.pkl"
        engine.save(str(path))
        restored = ChiselLPM.load(str(path))
        for key in sample_keys(small_table, rng, 500):
            assert restored.lookup(key) == engine.lookup(key)
        assert len(restored) == len(engine)

    def test_restored_engine_still_updatable(self, small_table, tmp_path):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=96))
        path = tmp_path / "engine.pkl"
        engine.save(str(path))
        restored = ChiselLPM.load(str(path))
        prefix = Prefix.from_string("203.0.113.0/24")
        restored.announce(prefix, 42)
        assert restored.lookup(prefix.network_int() | 7) == 42
        restored.withdraw(prefix)
        restored.purge_dirty()
        assert len(restored) == len(small_table)

    def test_load_rejects_wrong_type(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"not": "an engine"}, handle)
        with pytest.raises(TypeError):
            ChiselLPM.load(str(path))


class TestCLIPersistence:
    def test_build_save_then_lookup_from_engine(self, tmp_path, capsys):
        table_path = tmp_path / "t.tbl"
        save_table(synthetic_table(600, seed=97), table_path)
        engine_path = tmp_path / "engine.pkl"
        assert main(["build", "--table", str(table_path),
                     "--save", str(engine_path)]) == 0
        assert engine_path.exists()
        capsys.readouterr()
        assert main(["lookup", "--engine", str(engine_path),
                     "10.0.0.1"]) == 0
        assert "10.0.0.1" in capsys.readouterr().out


def _park(fib, subcell, count):
    """Withdraw every original of ``count`` live buckets: each parks dirty."""
    live = [(value, bucket) for value, bucket in subcell.buckets.items()
            if not bucket.dirty][:count]
    for value, bucket in live:
        for length, suffix in list(bucket.originals):
            fib.withdraw(Prefix((value << (length - subcell.base)) | suffix,
                                length, fib.width))
        assert bucket.dirty


def _spill(subcell):
    """Move one encoded key into the spillover TCAM: the state a group
    setup that ran out of rehashes leaves (§4.1)."""
    index = subcell.index
    value = next(value for value, bucket in subcell.buckets.items()
                 if not bucket.dirty)
    group_index = index.group_of(value)
    group = index._groups[group_index]
    survivors = dict(group.shadow)
    pointer = survivors.pop(value)
    group.setup(survivors)
    index.spillover.insert(value, pointer)
    index._spilled_by_group[group_index][value] = pointer


def _churned(backend):
    """A FIB through every shadow path a checkpoint carries: dirty
    parking, a purge, a spillover entry, a sub-cell growth and a scrub
    repair, on top of ordinary churn."""
    table = synthetic_table(600, seed=61)
    fib = ForwardingEngine.from_table(
        table, config=ChiselConfig(seed=61, index_backend=backend))
    engine = fib.engine
    for op in synthesize_trace(table, 200, seed=62):
        apply_update(fib, op)
    widest = max(engine.subcells, key=lambda cell: len(cell.buckets))
    _park(fib, widest, 3)
    assert engine.purge_dirty() >= 3
    assert engine.dirty_count() == 0
    _park(fib, widest, 3)
    small = engine.subcell_for(Prefix.from_string("224.0.0.0/28"))
    capacity = small.capacity
    for octet in range(capacity + 1):
        fib.announce(Prefix.from_string(f"224.0.{octet}.0/28"),
                     "10.9.0.1", "eth9")
    assert engine.subcell_for(
        Prefix.from_string("224.0.0.0/28")).capacity > capacity
    _spill(widest)
    assert FaultInjector(seed=61).flip_table_bit(engine, kind="bitvector")
    report = engine.scrub()
    assert report.total_repaired >= 1 and report.healthy
    assert engine.dirty_count() == 3
    assert len(widest.index.spillover) == 1
    return table, fib


def _same_words(fib, twin):
    assert twin.engine.words_written() == fib.engine.words_written()
    assert (HardwareImage.snapshot(twin.engine).tables
            == HardwareImage.snapshot(fib.engine).tables)


def _classes_named(blob):
    """Every (module, class) a pickle names."""
    named = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            named.add((module, name))
            return super().find_class(module, name)

    Recorder(io.BytesIO(blob)).load()
    return named


@pytest.mark.parametrize("backend", ["bloomier", "fuse"])
class TestColumnarBucketState:
    """Each sub-cell pickles its buckets as columns, and restores them
    in dict order with every field, so a restored engine replays
    word-identically."""

    def test_round_trip_after_churn(self, backend):
        table, fib = _churned(backend)
        twin = pickle.loads(
            pickle.dumps(fib, protocol=pickle.HIGHEST_PROTOCOL))
        for cell, copied in zip(fib.engine.subcells, twin.engine.subcells):
            assert list(copied.buckets) == list(cell.buckets)
            for value, bucket in cell.buckets.items():
                restored = copied.buckets[value]
                assert ((restored.base, restored.span, restored.pointer,
                         restored.dirty)
                        == (bucket.base, bucket.span, bucket.pointer,
                            bucket.dirty))
                assert (list(restored.originals.items())
                        == list(bucket.originals.items()))
            assert copied.log is None
        _same_words(fib, twin)
        for op in synthesize_trace(table, 500, seed=63):
            apply_update(fib, op)
            apply_update(twin, op)
        _same_words(fib, twin)
        assert twin.engine.maintenance() == fib.engine.maintenance()
        _same_words(fib, twin)

    def test_blob_names_no_bucket_class(self, backend):
        fib = ForwardingEngine.from_table(
            synthetic_table(300, seed=64),
            config=ChiselConfig(index_backend=backend))
        named = _classes_named(
            pickle.dumps(fib, protocol=pickle.HIGHEST_PROTOCOL))
        assert ("repro.core.subcell", "ChiselSubCell") in named
        assert ("repro.core.bitvector", "Bucket") not in named


def _drop_last(column):
    del column[-1]


def _shift_count(counts):
    counts[0] += 1


def _negative_count(counts):
    counts[0], counts[1] = -1, counts[0] + counts[1] + 1


@pytest.mark.parametrize("position, damage", [
    (0, _drop_last),       # a collapsed value short
    (2, _drop_last),       # a dirty flag short
    (3, _shift_count),     # counts sum past the originals
    (3, _negative_count),  # same sum, one count negative
    (5, _drop_last),       # a suffix short
    (6, _drop_last),       # a next hop short
], ids=["values", "dirty", "counts", "negative-count", "suffixes", "hops"])
def test_columns_that_disagree_raise(position, damage):
    engine = ChiselLPM.build(synthetic_table(300, seed=66),
                             ChiselConfig(seed=66))
    cell = max(engine.subcells, key=lambda subcell: len(subcell.buckets))
    _none, slots = cell.__getstate__()
    columns = [list(column) for column in slots["buckets"]]
    damage(columns[position])
    slots["buckets"] = tuple(columns)
    with pytest.raises(IntegrityError, match="columns disagree"):
        ChiselSubCell.__new__(ChiselSubCell).__setstate__((None, slots))
