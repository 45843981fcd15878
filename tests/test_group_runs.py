"""Group-local bucket pointers (§4.4.2).

A key's checksum group is fixed, so each of a sub-cell's d groups owns a
run of ``ceil(capacity / d)`` bucket rows with its own free list, and
its Index words (and spillover TCAM entries) hold pointers local to
that run; both datapaths add the run's first row back.  These tests pin
the word width, the grow a full run forces (at build and on an update)
and INV101's run checks.
"""

import math
import random

import numpy as np
import pytest

from repro.core import ChiselConfig, ChiselLPM
from repro.core.batch import BatchLookup
from repro.core.flatpath import word_dtype
from repro.core.sizing import pointer_bits
from repro.devtools.invariants import verify_engine
from repro.prefix import Prefix, RoutingTable
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.shard import ShardCoordinator
from repro.verify import image_differences, keys_under
from repro.workloads import synthetic_table


@pytest.mark.parametrize("backend", ["bloomier", "fuse"])
def test_index_words_are_as_wide_as_a_group_run(backend):
    """Every sub-cell's Index words, TCAM values and compiled Index
    table are ``pointer_bits(ceil(capacity / d))`` wide, the width
    ``core/sizing.py`` models for a partitioned Index Table."""
    engine = ChiselLPM.build(synthetic_table(3000, seed=5),
                             ChiselConfig(width=32, index_backend=backend))
    plans = BatchLookup(engine)._plans
    for subcell, plan in zip(engine.subcells, plans):
        index = subcell.index
        run = math.ceil(subcell.capacity / index.partitions)
        bits = pointer_bits(run)
        assert subcell.run == index.run == run
        assert index.value_bits == index.spillover.value_bits == bits
        assert {group.value_bits for group in index.groups} == {bits}
        assert all(0 <= word < 1 << bits
                   for group in index.groups for word in group.table)
        assert plan.fused.table.dtype == word_dtype(bits)
        assert plan.run == run


def test_a_group_overfilled_at_build_grows_the_subcell():
    """With no head-room (``capacity_slack=1.0``) and every /24 its own
    bucket, the fullest of 16 groups holds more buckets than its run:
    the build doubles the sub-cell instead of raising, and the engine
    answers every route and verifies clean."""
    rng = random.Random(9)
    table = RoutingTable(width=32)
    while len(table) < 2000:
        table.add(Prefix(rng.getrandbits(24), 24, 32), rng.randrange(1, 50))
    engine = ChiselLPM.build(table, ChiselConfig(width=32,
                                                 capacity_slack=1.0))
    subcell = engine.subcell_for(Prefix(0, 24, 32))
    asked = len(table) + 1
    assert len(subcell.buckets) <= asked
    assert subcell.capacity >= 2 * asked
    report = verify_engine(engine)
    assert report.ok, report.format()
    for prefix, next_hop in table:
        assert engine.lookup(prefix.network_int()) == next_hop


def _fresh_values(subcell, group, count, rng):
    """``count`` collapsed values no bucket holds, all in ``group``."""
    values = []
    while len(values) < count:
        value = rng.getrandbits(subcell.base)
        if (value not in subcell.buckets and value not in values
                and subcell.index.group_of(value) == group):
            values.append(value)
    return values


def test_one_group_driven_past_its_run_grows_once():
    """Announces that all land in one group of a small table's widest
    sub-cell fill its run; the next one grows the sub-cell, once.  After
    every update the served image equals a fresh compile, and the
    scalar engine, the flat datapath and a 1-worker shard plane give
    the same answers across the grow."""
    rng = random.Random(12)
    table = synthetic_table(300, seed=12)
    fib = ForwardingEngine.from_table(table,
                                      config=ChiselConfig(width=32))
    router = SnapshotRouter(fib)
    engine = fib.engine
    subcell = max(engine.subcells, key=lambda cell: len(cell.buckets))
    group = min(range(subcell.index.partitions),
                key=lambda g: len(subcell._free_pointers[g]))
    values = _fresh_values(subcell, group,
                           len(subcell._free_pointers[group]) + 1, rng)
    prefixes = [Prefix(value, subcell.base, 32) for value in values]
    cells = []
    with ShardCoordinator(router, workers=1) as plane:
        for count, prefix in enumerate(prefixes, 1):
            router.announce(prefix, f"10.7.{count % 250}.1", "eth1")
            cells.append(engine.subcell_for(prefix))
            assert image_differences(router) == []
            keys = np.array(keys_under(rng, 32, 256, prefixes[:count]),
                            dtype=np.uint64)
            flat = router.lookup_batch(keys)
            scalar = [engine.lookup(int(key)) for key in keys]
            assert flat.tolist() == [-1 if hop is None else hop
                                     for hop in scalar]
            assert np.array_equal(plane.lookup_batch(keys), flat)
    grows = [after is not before for before, after in zip(cells, cells[1:])]
    assert grows == [False] * (len(prefixes) - 2) + [True]
    assert cells[-1].capacity == 2 * subcell.capacity
    report = verify_engine(engine)
    assert report.ok, report.format()


# -- INV101's run checks -----------------------------------------------------


@pytest.fixture
def engine():
    return ChiselLPM.build(synthetic_table(400, seed=3),
                           ChiselConfig(width=32))


def _widest(engine):
    return max(engine.subcells, key=lambda cell: len(cell.buckets))


def test_a_pointer_outside_its_group_run_is_inv101(engine):
    """A bucket moved to a free row of another group's run (tables and
    free lists kept consistent) still has a unique row, but its key's
    Index words cannot name it: INV101."""
    subcell = _widest(engine)
    value, bucket = next(iter(subcell.buckets.items()))
    home = subcell.index.group_of(value)
    other = next(g for g, free in enumerate(subcell._free_pointers)
                 if g != home and free)
    old, new = bucket.pointer, subcell._free_pointers[other].pop()
    for table in (subcell.filter_table, subcell.dirty_table,
                  subcell.bv_table, subcell.region_ptr,
                  subcell.region_ptr_shadow, subcell.region_block):
        table[new], table[old] = table[old], table[new]
    subcell._free_pointers[home].append(old)
    bucket.pointer = new
    report = verify_engine(engine)
    assert "INV101" in report.codes()
    assert any("outside its group" in violation.message
               for violation in report.violations)


def test_free_lists_that_overlap_or_stray_are_inv101(engine):
    """A row on two groups' free lists, or on a list outside its run:
    INV101 names the group."""
    subcell = _widest(engine)
    free = subcell._free_pointers
    donor = next(g for g, rows in enumerate(free) if rows)
    free[(donor + 1) % len(free)].append(free[donor][0])
    report = verify_engine(engine)
    assert "INV101" in report.codes()
    messages = " ".join(violation.message
                        for violation in report.violations)
    assert "outside its run" in messages and "repeats a row" in messages


def test_scrub_refuses_a_shadow_pointer_in_another_groups_run(engine):
    """A shadow bucket pointer flipped onto a free row of another
    group's run is in range and unique, but the key's group cannot
    encode it: scrub reports the sub-cell uncorrectable (the degraded
    mode trigger) instead of re-encoding toward it."""
    subcell = _widest(engine)
    value, bucket = next(iter(subcell.buckets.items()))
    home = subcell.index.group_of(value)
    other = next(g for g, free in enumerate(subcell._free_pointers)
                 if g != home and free)
    bucket.pointer = subcell._free_pointers[other][-1]
    report = engine.scrub()
    assert not report.healthy
    assert any("outside its group's run" in issue
               for issue in report.uncorrectable)
