"""Property suite for the IBLT codec (``repro.replicate.iblt``).

Three contracts the reconciliation path leans on:

1. **Roundtrip** — a table sized for its content decodes back to
   exactly the inserted set (and serialize/deserialize is lossless).
2. **Symmetric difference** — for any two sets whose difference fits
   the sizing bound, ``a.subtract(b).decode()`` recovers exactly
   (only-in-a, only-in-b); shared keys cancel regardless of how many.
3. **Pinned failure rate** — at the chosen ``CELL_MULTIPLIER`` the
   peel fails rarely enough that one doubling retry is a sufficient
   fallback policy (measured over a fixed deterministic trial sweep,
   so this pins the multiplier: lowering it fails this test).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replicate.iblt import (
    CELL_MULTIPLIER,
    IBLT,
    IBLTError,
    cells_for,
    fingerprint,
)

#: 64-bit nonzero keys, as produced by ``fingerprint``.
keys = st.integers(min_value=1, max_value=(1 << 64) - 1)


def _peel_with_retry(content_a, content_b, delta, seed=0, retries=6):
    """Decode like the protocol does: on peel failure, double + reseed.

    A single peel can always fail (all of a key's cells can collide),
    so the meaningful property is that the retry ladder converges —
    which is exactly what RECON_RETRY implements on the wire.
    """
    cells = cells_for(max(delta, 1))
    for attempt in range(retries):
        a = IBLT(cells, seed=seed + attempt)
        b = IBLT(cells, seed=seed + attempt)
        a.extend(content_a)
        b.extend(content_b)
        decoded = a.subtract(b).decode()
        if decoded is not None:
            return decoded
        cells *= 2
    return None


@given(st.sets(keys, max_size=60), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_roundtrip_decodes_inserted_set(content, seed):
    decoded = _peel_with_retry(content, set(), len(content), seed=seed)
    assert decoded == (content, set())


@given(st.sets(keys, max_size=200), st.sets(keys, max_size=30),
       st.sets(keys, max_size=30))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_symmetric_difference_up_to_sizing_bound(shared, left, right):
    left -= shared | right
    right -= shared
    delta = len(left) + len(right)
    decoded = _peel_with_retry(shared | left, shared | right, delta)
    assert decoded == (left, right)


@given(st.sets(keys, max_size=50), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_serialize_roundtrip(content, seed):
    table = IBLT(cells_for(max(len(content), 1)), seed=seed)
    table.extend(content)
    blob = table.serialize()
    assert len(blob) == table.serialized_size()
    restored = IBLT.deserialize(blob)
    assert restored.cells == table.cells
    assert restored.hashes == table.hashes
    assert restored.seed == table.seed
    assert restored.serialize() == blob
    # Identical cells → identical decode, even when the peel fails.
    assert restored.decode() == table.decode()


@given(st.sets(keys, min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_insert_delete_cancels(content):
    table = IBLT(cells_for(len(content)))
    table.extend(content)
    for key in content:
        table.delete(key)
    assert table.decode() == (set(), set())


def test_subtract_requires_matching_geometry():
    with pytest.raises(IBLTError):
        IBLT(24).subtract(IBLT(48))
    with pytest.raises(IBLTError):
        IBLT(24, seed=1).subtract(IBLT(24, seed=2))


def test_decode_failure_rate_pinned_at_multiplier():
    """At CELL_MULTIPLIER the peel rarely fails; one doubling rescues it.

    The trial sweep is deterministic (seeded), so this is a regression
    pin on the sizing policy, not a flaky statistical test.
    """
    assert CELL_MULTIPLIER >= 1.8  # the documented sizing floor
    trials = 300
    failures = 0
    worst_retries = 0
    rng = random.Random(2006)
    for trial in range(trials):
        delta = rng.randint(1, 40)
        content = {rng.getrandbits(64) | 1 for _ in range(delta)}
        cells = cells_for(len(content))
        retries = 0
        while True:
            table = IBLT(cells, seed=trial + retries)
            table.extend(content)
            decoded = table.decode()
            if decoded is not None:
                assert decoded[0] == content
                break
            retries += 1
            cells *= 2
            assert retries <= 3, f"trial {trial}: no decode in 3 doublings"
        if retries:
            failures += 1
            worst_retries = max(worst_retries, retries)
    # Small deltas sit at the minimum table size where the asymptotic
    # 1.23 threshold does not apply; ~9% first-shot failure is the
    # measured behavior at 1.8x.  The protocol's contract is the pair:
    # first-shot failure stays uncommon AND the doubling-retry ladder
    # (RECON_RETRY) converges within a couple of steps.
    assert failures / trials < 0.12, f"{failures}/{trials} peels failed"
    assert worst_retries <= 2


def test_fingerprint_nonzero_and_sensitive():
    base = fingerprint(("10.0.0.0", 8, "10.8.1.1", "eth0", 7))
    assert base != 0
    assert fingerprint(("10.0.0.0", 8, "10.8.1.1", "eth0", 7)) == base
    assert fingerprint(("10.0.0.0", 8, "10.8.1.1", "eth0", 8)) != base
    assert fingerprint(("10.0.0.0", 8, "10.8.1.1", "eth1", 7)) != base
    # Length-prefixed parts: ("ab","c") must not collide with ("a","bc").
    assert fingerprint(("ab", "c")) != fingerprint(("a", "bc"))


@pytest.mark.parametrize("entry, expected", [
    ((167772160, 8, "10.8.1.1", "eth0", 7), 2416178778918757336),
    ((3232235520, 16, "192.168.0.1", "éth0/ünï☃", 0), 15983380765453721474),
    ((0, 0, "10.0.0.1", "eth7", 2**40 + 5), 6214487440390035350),
])
def test_fingerprint_golden_values(entry, expected):
    """Ledger checksums XOR these: the bytes hashed never change
    (a non-ASCII interface hashes its UTF-8 length; a seq past 2**32 its
    full decimal text)."""
    assert fingerprint(entry) == expected


def test_cells_for_scales_with_delta_and_is_k_aligned():
    small = cells_for(10)
    large = cells_for(1000)
    assert small < large
    assert small % 3 == 0 and large % 3 == 0
    assert large >= int(1000 * CELL_MULTIPLIER)
    # Tiny deltas still get the minimum workable table.
    assert cells_for(0) == cells_for(1) > 0
