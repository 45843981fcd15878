"""The batch datapath's front table (``repro.core.batch``).

Word ``key >> (width - 16)`` of the front table has bit ``i`` set when
sub-cell plan ``i`` may hold a live bucket under that key prefix, and
``lookup_keys`` probes a plan only with the keys whose word has its bit.
These tests hold the table to its one rule, a superset of every plan's
live buckets, at key widths 8-64, with a default route, through a purge
and a route flap; and they pin how few keys reach the sub-cell probes.
(A shard worker's bursts are covered in tests/test_shard.py.)
"""

import random

import numpy as np
import pytest

from repro.core import ChiselConfig, ChiselLPM
from repro.core.batch import BatchLookup, front_table
from repro.core.flatpath import word_dtype
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.prefix import Prefix
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.verify import image_differences, keys_under
from repro.workloads import synthetic_table

from .conftest import assert_batch_matches_scalar, probe_keys, random_table

BACKENDS = ("bloomier", "fuse")

#: Keys handed to sub-cell probes by one 4,096-key uniform batch on
#: ``synthetic_table(5_000, seed=2006)``: 573 with the front table,
#: against 24,440 for a loop that probes every non-empty plan with every
#: key still unanswered.  The count follows from the live buckets and
#: the keys alone, so it is the same on every machine.
PROBE_CEILING = 1_024


@pytest.fixture()
def registry():
    previous = set_registry(MetricsRegistry())
    yield get_registry()
    set_registry(previous)


def scalar_answers(engine, keys):
    return [-1 if hop is None else hop
            for hop in (engine.lookup(int(key)) for key in keys)]


def router_for(table, purge_threshold, **options):
    config = ChiselConfig(width=table.width, **options)
    fib = ForwardingEngine.from_table(
        table, config=config, dirty_purge_threshold=purge_threshold)
    return fib, SnapshotRouter(fib)


def plan_bit(router, prefix):
    """(front word, plan bit) of ``prefix``'s first key."""
    engine = router.fib.engine
    position = engine.subcells.index(engine.subcell_for(prefix))
    bits = len(router._snapshot._front).bit_length() - 1
    return prefix.network_int() >> (router.width - bits), 1 << position


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width", [8, 12, 48, 64])
def test_front_at_every_key_width(backend, width):
    """Below 16 key bits the table has a word per key; above 8 plans it
    needs 16-bit words.  Through announces and withdraws (purges
    included) the served table keeps every bit a fresh compile sets,
    and the answers stay the scalar path's."""
    rng = random.Random(width)
    table = random_table(rng, width, 150)
    fib, router = router_for(table, 1, seed=width, index_backend=backend)
    snapshot = router._snapshot
    plans = snapshot._plans
    assert len(snapshot._front) == 2 ** min(16, width)
    assert snapshot._front.dtype == word_dtype(len(plans))
    if width >= 48:
        assert len(plans) > 8 and snapshot._front.dtype == np.uint16
    engine = fib.engine
    assert_batch_matches_scalar(engine, probe_keys(engine, rng), snapshot)
    live = list(table.prefixes())
    changed = []
    for step in range(80):
        if step % 2:
            prefix = live.pop(rng.randrange(len(live)))
            router.withdraw(prefix)
        else:
            length = rng.randint(0, width)
            prefix = Prefix(rng.getrandbits(length) if length else 0,
                            length, width)
            router.announce(prefix, "10.8.3.1", "eth3")
            live.append(prefix)
        changed.append(prefix)
        assert image_differences(router) == []
    assert fib.purges_run > 0
    keys = probe_keys(engine, rng, extra=200) + keys_under(
        rng, width, 200, changed)
    assert router.lookup_batch(keys).tolist() == scalar_answers(engine,
                                                                keys)


def test_default_route_marks_every_word():
    """The base-0 plan covers every key, so a default route sets its bit
    in every word; withdrawn and purged, it clears them all."""
    table = synthetic_table(1_500, seed=71)
    default = Prefix(0, 0, table.width)
    table.add(default, 7)
    fib, router = router_for(table, 1)
    front = router._snapshot._front
    word, bit = plan_bit(router, default)
    assert router._snapshot._plans[-1].base == 0 and bit == 1 << (
        len(router._snapshot._plans) - 1)
    assert ((front & bit) == bit).all()
    keys = np.random.default_rng(71).integers(0, 2**32, 4096,
                                              dtype=np.uint64)
    answers = router.lookup_batch(keys)
    assert (answers >= 0).all()
    assert answers.tolist() == scalar_answers(fib.engine, keys)
    router.withdraw(default)
    assert fib.purges_run == 1
    assert not (router._snapshot._front & bit).any()
    assert image_differences(router) == []
    answers = router.lookup_batch(keys)
    assert (answers < 0).any()
    assert answers.tolist() == scalar_answers(fib.engine, keys)


def test_route_flap_after_a_purge_cleared_its_bit():
    """A route alone under its front word is withdrawn and purged: the
    replan clears its plan's bit there.  Announced again, the patch sets
    the bit, and its keys are answered."""
    table = synthetic_table(1_500, seed=73)
    fib, router = router_for(table, 1)
    engine = fib.engine
    rng = random.Random(73)
    for prefix, _hop in table:
        subcell = engine.subcell_for(prefix)
        if subcell.base < 16:
            continue
        word = prefix.collapse(subcell.base).value >> (subcell.base - 16)
        alone = [value for value in subcell.buckets
                 if value >> (subcell.base - 16) == word]
        bucket = subcell.buckets[prefix.collapse(subcell.base).value]
        if len(alone) == 1 and len(bucket) == 1:
            break
    else:
        pytest.fail("no route alone under its front word")
    word, bit = plan_bit(router, prefix)
    keys = keys_under(rng, table.width, 64, [prefix])
    info = fib.next_hops.resolve(
        int(router.lookup_batch([prefix.network_int()])[0]))
    assert router._snapshot._front[word] & bit
    router.withdraw(prefix)
    assert fib.purges_run == 1
    assert not router._snapshot._front[word] & bit
    assert image_differences(router) == []
    assert router.lookup_batch(keys).tolist() == scalar_answers(engine, keys)
    router.announce(prefix, info.gateway, info.interface)
    assert router._snapshot._front[word] & bit
    assert image_differences(router) == []
    assert router.lookup_batch(keys).tolist() == scalar_answers(engine, keys)
    assert router.lookup_batch([prefix.network_int()])[0] >= 0


def test_front_table_bounds_the_keys_probed(registry):
    """A 4,096-key uniform batch hands at most ``PROBE_CEILING`` keys to
    the sub-cell probes, and both counters move as documented."""
    table = synthetic_table(5_000, seed=2006)
    lookup = BatchLookup(ChiselLPM.build(table,
                                         ChiselConfig(width=table.width)))
    keys = np.random.default_rng(2006).integers(0, 2**32, 4096,
                                                dtype=np.uint64)
    answers = lookup.lookup_keys(keys)
    probed = registry.counter("batch_subcell_probes_total").value
    assert registry.counter("batch_keys_total").value == 4096
    assert 0 < probed <= PROBE_CEILING
    assert answers.tolist() == scalar_answers(lookup.engine, keys)
    lookup.lookup_keys(keys[:0])
    assert registry.counter("batch_keys_total").value == 4096


def test_front_table_is_derived_from_the_plans():
    """The table rebuilt from the plans equals the one kept beside them
    at compile, and an image rebuilt from the codec derives it again."""
    from repro.shard.codec import SnapshotImage, encode_image, \
        write_image_into

    table = synthetic_table(800, seed=79)
    lookup = BatchLookup(ChiselLPM.build(table,
                                         ChiselConfig(width=table.width)))
    assert np.array_equal(lookup._front,
                          front_table(lookup._plans, lookup.width))
    encoded = encode_image(lookup, 1)
    buffer = bytearray(encoded.total_size)
    write_image_into(memoryview(buffer), encoded)
    image = SnapshotImage(memoryview(buffer), encoded.header,
                          encoded.payload_start, context="test")
    assert np.array_equal(image.to_lookup()._front, lookup._front)
