"""The cold build is pinned word for word.

Writer and replicas each run ``bootstrap`` from the same table and then
apply the same record stream; they stay byte-identical only while the
build itself is deterministic.  This test hashes every table word the
build writes, sub-cell by sub-cell — Filter, dirty, bit-vector, region
pointer with its shadow and block size, the Result arena, each
Index-Table group and the sorted spillover — together with the ledger
checksum and the engine's storage total, and asserts SHA-256 digests
recorded from the build before its bulk paths were rewritten.  Any moved
word, on any interpreter, fails it.  The bulk builders also pause the
cyclic collector; the last tests pin that they hand its state back.
"""

import gc
import hashlib

import pytest

from repro.core import ChiselConfig, ChiselLPM
from repro.core.subcell import ChiselSubCell
from repro.replicate.state import RouteLedger, bootstrap
from repro.workloads import synthetic_table

#: SHA-256 of :func:`build_digest` over ``synthetic_table(5_000, seed=2006)``.
PINNED = {
    "bloomier": "c2c55cfc095a408135c526026f9cce227eac21da0b3c38fb2500c59db557bf2c",
    "fuse": "2812e6bee92b9fb9164b9ddd3c24262c01fa497689e7f5356e69a01de3fc69f8",
}


def build_digest(fib, ledger) -> str:
    """SHA-256 over every hardware word of ``fib`` plus the ledger checksum."""
    digest = hashlib.sha256()

    def fold(name, words):
        digest.update(f"{name}:{list(words)!r};".encode("ascii"))

    engine = fib.engine
    for subcell in engine.subcells:
        fold("base", [subcell.base, subcell.span, subcell.capacity])
        fold("filter", subcell.filter_table)
        fold("dirty", subcell.dirty_table)
        fold("bitvector", subcell.bv_table)
        fold("regionptr", subcell.region_ptr)
        fold("regionptr_shadow", subcell.region_ptr_shadow)
        fold("region_block", subcell.region_block)
        fold("result", subcell.result.arena)
        for words in subcell.index.hardware_words():
            fold("index", words)
        fold("spillover", sorted(subcell.index.spillover))
    fold("ledger", [ledger.checksum, len(ledger)])
    fold("storage", [engine.total_storage_bits()])
    return digest.hexdigest()


@pytest.mark.parametrize("backend", sorted(PINNED))
def test_bootstrap_words_are_pinned(backend):
    table = synthetic_table(5_000, seed=2006)
    fib, ledger = bootstrap(table, ChiselConfig(width=32,
                                                index_backend=backend))
    assert build_digest(fib, ledger) == PINNED[backend]


# -- the collector pause -----------------------------------------------------


@pytest.fixture
def collector_state():
    """Run a test from an enabled collector and leave it enabled."""
    gc.enable()
    yield
    gc.enable()


def test_build_reenables_an_enabled_collector(collector_state):
    table = synthetic_table(200, seed=5)
    ChiselLPM.build(table, ChiselConfig(width=32))
    assert gc.isenabled()
    RouteLedger.from_table(table)
    assert gc.isenabled()


def test_build_keeps_a_callers_disabled_collector(collector_state):
    table = synthetic_table(200, seed=5)
    gc.disable()
    ChiselLPM.build(table, ChiselConfig(width=32))
    assert not gc.isenabled()
    RouteLedger.from_table(table)
    assert not gc.isenabled()


def test_failed_build_restores_the_collector(collector_state, monkeypatch):
    def fail(self, bucket_map):
        assert not gc.isenabled()
        raise RuntimeError("setup failed")

    monkeypatch.setattr(ChiselSubCell, "build", fail)
    with pytest.raises(RuntimeError, match="setup failed"):
        ChiselLPM.build(synthetic_table(200, seed=5), ChiselConfig(width=32))
    assert gc.isenabled()
