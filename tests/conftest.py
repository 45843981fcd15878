"""Shared fixtures: small deterministic routing tables and RNGs."""

import random

import pytest

from repro.core.batch import BatchLookup
from repro.prefix import Prefix, RoutingTable
from repro.verify import keys_under
from repro.workloads import synthetic_table


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def tiny_table():
    """The paper's Fig. 5 example plus a default route and an IPv4 flavor."""
    table = RoutingTable(width=32, name="tiny")
    table.add(Prefix.from_bits("10011"), 1)    # P1 (Fig. 5)
    table.add(Prefix.from_bits("101011"), 2)   # P2
    table.add(Prefix.from_bits("1001101"), 3)  # P3
    table.add(Prefix(0, 0, 32), 9)             # default route
    return table


@pytest.fixture
def small_table():
    """~2000 clustered routes: big enough to exercise every sub-cell path."""
    return synthetic_table(2000, seed=42, name="small")


@pytest.fixture
def medium_table():
    """~8000 routes for integration-style tests."""
    return synthetic_table(8000, seed=7, name="medium")


def brute_force_lookup(table: RoutingTable, key: int):
    """Reference LPM by scanning all routes (tests only)."""
    best = None
    best_hop = None
    for prefix, next_hop in table:
        if prefix.covers(key) and (best is None or prefix.length > best):
            best = prefix.length
            best_hop = next_hop
    return best_hop


def sample_keys(table: RoutingTable, rng: random.Random, count: int):
    """Half random keys, half keys under the table's prefixes (hit-heavy)."""
    return keys_under(rng, table.width, count, list(table.prefixes()))


def random_table(rng: random.Random, width: int, routes: int) -> RoutingTable:
    """``routes`` random prefixes of any length, random next hops."""
    table = RoutingTable(width=width)
    for _ in range(routes):
        length = rng.randint(0, width)
        value = rng.getrandbits(length) if length else 0
        table.add(Prefix(value, length, width), rng.randint(1, 200))
    return table


def probe_keys(engine, rng: random.Random, extra: int = 400):
    """Random keys plus keys aimed under every stored route, at every
    expansion corner (all-zeros, all-ones, random collapsed bits)."""
    width = engine.config.width
    keys = [rng.getrandbits(width) for _ in range(extra)]
    for prefix, _hop in engine.iter_routes():
        free = width - prefix.length
        base_key = prefix.network_int()
        keys.append(base_key)
        if free:
            keys.append(base_key | ((1 << free) - 1))
            keys.append(base_key | rng.getrandbits(free))
    return keys


def assert_batch_matches_scalar(engine, keys, batch=None):
    """The differential oracle: compiled answers == scalar answers, on
    the whole batch."""
    batch = batch or BatchLookup(engine)
    expected = [engine.lookup(int(key)) for key in keys]
    assert batch.lookup_many(list(keys)) == expected
    return batch
