"""Differential tests of the batched hierarchy engine.

The engine's contract is *bit-for-bit* equality: whatever path a
stream takes — the per-chunk ``access()`` loop or the batched
engine, any chunk split, any mid-stream ``invalidate()`` — the
resulting :class:`HierarchyStats` must be identical, and identical to
the scalar :class:`SetAssociativeCache` ground truth.
These tests hold every pairing to that, over randomized streams that
mix uniform-random, strided-sweep, and hot-set phases so both
miss-heavy and hit-heavy regimes are exercised across window
boundaries (streams are sized past ``BATCH_TARGET`` on purpose).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    BATCH_TARGET,
    CacheHierarchy,
    CacheParams,
    SetAssociativeCache,
    WritePolicy,
    partition,
)
from repro.trace.generator import TraceChunk

# Geometry zoo: name -> level params. Small caches so random streams
# actually collide; each exercises a distinct simulator pairing.
GEOMETRIES = {
    # paper-shaped: 32B L1 lines, 64B L2 lines
    "paper_mixed_lines": (CacheParams(4 * 1024, 32, 1, "L1"),
                          CacheParams(64 * 1024, 64, 1, "L2")),
    # equal 64B line sizes, S1 <= S2 (the lattice's 1-way/64B cells;
    # once served by a shared single-sort mode, now per-level)
    "equal_lines_shared": (CacheParams(4 * 1024, 64, 1, "L1"),
                           CacheParams(64 * 1024, 64, 1, "L2")),
    # 64B-line 2-way and 4-way L1 over a 64B L2 (the lattice's
    # associative 64B cells)
    "l1_64b_2way": (CacheParams(4 * 1024, 64, 2, "L1"),
                    CacheParams(64 * 1024, 64, 1, "L2")),
    "l1_64b_4way": (CacheParams(4 * 1024, 64, 4, "L1"),
                    CacheParams(64 * 1024, 64, 1, "L2")),
    # one level only
    "single_level": (CacheParams(2 * 1024, 32, 1, "L1"),),
    # 2-way L2 -> TwoWayCache level inside the engine's per-level path
    "two_way_l2": (CacheParams(4 * 1024, 32, 1, "L1"),
                   CacheParams(32 * 1024, 32, 2, "L2")),
    # num_sets == 2**15: the int16 narrowing boundary (max key 32767)
    "set_count_boundary": (CacheParams(1 * 1024, 32, 1, "L1"),
                           CacheParams((1 << 15) * 32, 32, 1, "L2")),
    # 4-way L2 -> AssocScanCache level inside the engine's per-level path
    "four_way_l2": (CacheParams(4 * 1024, 32, 1, "L1"),
                    CacheParams(16 * 1024, 32, 4, "L2")),
    # fully-associative (TLB-shaped) L1 over a direct-mapped L2
    "fully_assoc_l1": (CacheParams(2 * 1024, 32, 64, "TLB"),
                       CacheParams(64 * 1024, 32, 1, "L2")),
}


def mixed_stream(rng, n, line_bytes, span_lines):
    """Random byte addresses with hot-set, strided, and uniform phases."""
    parts = []
    remaining = n
    while remaining > 0:
        seg = int(rng.integers(200, 4000))
        seg = min(seg, remaining)
        kind = rng.integers(0, 3)
        if kind == 0:      # uniform-random lines (miss-heavy)
            lines = rng.integers(0, span_lines, size=seg)
        elif kind == 1:    # sequential sweep (spatial locality)
            start = int(rng.integers(0, span_lines))
            lines = (start + np.arange(seg)) % span_lines
        else:              # hot set (hit-heavy, temporal locality)
            hot = rng.integers(0, span_lines, size=max(4, seg // 64))
            lines = rng.choice(hot, size=seg)
        offs = rng.integers(0, line_bytes, size=seg)
        parts.append(lines.astype(np.int64) * line_bytes + offs)
        remaining -= seg
    return np.concatenate(parts)


def random_chunks(rng, stream, with_writes):
    """Split a stream at random boundaries into trace chunks.

    Each chunk is a one-iteration :class:`TraceChunk` whose references
    are the chunk's addresses, so its write flags may be arbitrary.
    """
    cuts = np.sort(rng.integers(0, stream.size,
                                size=int(rng.integers(2, 9))))
    chunks = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, stream.size]):
        addrs = stream[lo:hi]
        w = ((rng.random(addrs.size) < 0.25) if with_writes
             else np.zeros(addrs.size, dtype=bool))
        chunks.append(TraceChunk(addrs.reshape(1, -1), w))
    return chunks


def ground_truth(params, chunks, write_policy):
    """Scalar LRU reference: demand-filtered SetAssociativeCache stack."""
    sims = [SetAssociativeCache(p) for p in params]
    reads = writes = 0
    for chunk in chunks:
        addrs, w = chunk.addresses, chunk.write_mask
        nw = int(np.count_nonzero(w))
        writes += nw
        reads += addrs.size - nw
        cur = addrs[~w] if write_policy is WritePolicy.WRITE_AROUND \
            else addrs
        for sim in sims:
            if cur.size == 0:
                break
            cur = cur[sim.access(cur)]
    return sims, reads, writes


def assert_matches_ground_truth(stats, sims, reads, writes):
    assert stats.reads == reads
    assert stats.writes == writes
    for (_, st), sim in zip(stats.levels, sims):
        assert st.accesses == sim.stats.accesses
        assert st.misses == sim.stats.misses


def assert_same_stats(a, b):
    assert a.reads == b.reads and a.writes == b.writes
    for (na, sa), (nb, sb) in zip(a.levels, b.levels):
        assert (na, sa.accesses, sa.misses) == (nb, sb.accesses, sb.misses)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("policy", list(WritePolicy))
def test_engine_matches_scalar_ground_truth(geometry, policy):
    params = GEOMETRIES[geometry]
    rng = np.random.default_rng(hash((geometry, policy.value)) % (1 << 32))
    span = 4 * max(p.num_lines for p in params)
    stream = mixed_stream(rng, BATCH_TARGET + 7919, params[0].line_bytes,
                          span)
    chunks = random_chunks(rng, stream, with_writes=True)

    hier = CacheHierarchy(list(params), write_policy=policy)
    stats = hier.run(iter(chunks))
    assert_matches_ground_truth(
        stats, *ground_truth(params, chunks, policy))


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_engine_matches_legacy_access_loop(geometry):
    params = GEOMETRIES[geometry]
    rng = np.random.default_rng(hash(geometry) % (1 << 32))
    stream = mixed_stream(rng, BATCH_TARGET + 311, params[0].line_bytes,
                          3 * max(p.num_lines for p in params))
    chunks = random_chunks(rng, stream, with_writes=True)

    engine_hier = CacheHierarchy(list(params))
    engine_stats = engine_hier.run(iter(chunks))

    legacy_hier = CacheHierarchy(list(params))
    for chunk in chunks:
        legacy_hier.access(chunk.addresses, chunk.write_mask)
    assert_same_stats(engine_stats, legacy_hier.stats())


def _expected_partition(keys, num_keys):
    order = np.argsort(keys, kind="stable")
    bp = np.r_[0, np.cumsum(np.bincount(keys, minlength=num_keys))]
    return order, bp


def test_partition_permutation_identical_to_stable_argsort():
    rng = np.random.default_rng(7)
    # 2**15 keys is the int16-narrowing boundary (max key 32767).
    for num_keys in (512, 1 << 15):
        keys = rng.integers(0, num_keys, size=50_000)
        expect_order, expect_bp = _expected_partition(keys, num_keys)
        order, bp = partition(keys, num_keys)
        np.testing.assert_array_equal(order, expect_order)
        np.testing.assert_array_equal(bp, expect_bp)


@st.composite
def _keyed_arrays(draw):
    """Keys in ``[0, num_keys)`` for int16 and int32 key spaces,
    straddling the int16 narrowing boundary ``2**15``."""
    num_keys = draw(st.sampled_from(
        [1, 2, 512, (1 << 15) - 1, 1 << 15, (1 << 15) + 1, 1 << 16,
         1 << 20]))
    dtypes = [np.int32, np.int64]
    if num_keys <= (1 << 15):
        dtypes.append(np.int16)
    dtype = draw(st.sampled_from(dtypes))
    # Up to 20000 keys: both boundary methods (binary search for few
    # groups, bincount for many) are exercised.
    size = draw(st.integers(0, 20_000))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # A narrow band of keys as well as the full range: repeated keys
    # are what stability is about.
    hi = draw(st.sampled_from([num_keys, min(num_keys, 8)]))
    lo = num_keys - hi if draw(st.booleans()) else 0
    keys = rng.integers(lo, lo + hi, size=size).astype(dtype)
    return keys, num_keys


@given(_keyed_arrays())
@settings(max_examples=60, deadline=None)
def test_partition_equals_stable_argsort_property(case):
    keys, num_keys = case
    order, bp = partition(keys, num_keys)
    expect_order, expect_bp = _expected_partition(keys.astype(np.int64),
                                                  num_keys)
    np.testing.assert_array_equal(order, expect_order)
    assert bp.dtype == np.int64 and bp.size == num_keys + 1
    np.testing.assert_array_equal(bp, expect_bp)


def test_partition_packed_dtype_boundary():
    """Position and key bits exactly fill int32 and the boundaries come
    from the binary search: the end boundary must not overflow."""
    rng = np.random.default_rng(11)
    num_keys = 1 << 13
    keys = rng.integers(0, num_keys, size=(1 << 17) + 1)
    order, bp = partition(keys, num_keys)
    expect_order, expect_bp = _expected_partition(keys, num_keys)
    np.testing.assert_array_equal(order, expect_order)
    np.testing.assert_array_equal(bp, expect_bp)


def test_partition_rejects_unknown_strategy():
    """The partition-strategy knobs are gone: one algorithm, no override."""
    with pytest.raises(TypeError):
        partition(np.zeros(4, dtype=np.int64), 16, "quantum")
    hier = CacheHierarchy(list(GEOMETRIES["paper_mixed_lines"]))
    with pytest.raises(TypeError):
        hier.run(iter([]), partition_strategy="argsort")


def test_partition_empty_input():
    order, bp = partition(np.empty(0, dtype=np.int64), 8)
    assert order.size == 0
    np.testing.assert_array_equal(bp, np.zeros(9, dtype=np.int64))


def test_chunk_split_invariance():
    """Any re-chunking of the same read stream gives identical stats."""
    params = GEOMETRIES["paper_mixed_lines"]
    rng = np.random.default_rng(13)
    stream = mixed_stream(rng, 2 * BATCH_TARGET + 137,
                          params[0].line_bytes, 3000)

    whole = CacheHierarchy(list(params)).run(iter([stream]))
    for seed in range(3):
        srng = np.random.default_rng(seed)
        chunks = random_chunks(srng, stream, with_writes=False)
        split = CacheHierarchy(list(params)).run(iter(chunks))
        assert_same_stats(whole, split)


def _check_mid_stream_invalidate(geometry, seed):
    params = GEOMETRIES[geometry]
    rng = np.random.default_rng(seed)
    a = mixed_stream(rng, BATCH_TARGET + 41, params[0].line_bytes, 2000)
    b = mixed_stream(rng, BATCH_TARGET + 43, params[0].line_bytes, 2000)

    hier = CacheHierarchy(list(params))
    hier.run(iter([a]))
    hier.invalidate()
    stats = hier.run(iter([b]))

    sims = [SetAssociativeCache(p) for p in params]
    reads = 0
    for part in (a, b):
        cur = part
        reads += part.size
        for sim in sims:
            if cur.size == 0:
                break
            cur = cur[sim.access(cur)]
        if part is a:
            for sim in sims:
                sim.invalidate()
    assert_matches_ground_truth(stats, sims, reads, 0)


def test_mid_stream_invalidate_between_runs():
    """invalidate() drops contents, keeps stats — engine path included."""
    _check_mid_stream_invalidate("equal_lines_shared", 29)


@pytest.mark.parametrize("geometry", ["paper_mixed_lines", "l1_64b_2way",
                                      "l1_64b_4way"])
def test_mid_stream_invalidate_across_geometries(geometry):
    _check_mid_stream_invalidate(geometry, 37)


def test_two_way_state_carries_across_chunks():
    """A 2-way level keeps exact LRU state across engine windows."""
    params = GEOMETRIES["two_way_l2"]
    rng = np.random.default_rng(31)
    # Hot set sized between one and two ways per set so LRU order matters.
    stream = mixed_stream(rng, 3 * BATCH_TARGET, params[0].line_bytes,
                          int(1.5 * params[1].num_lines))
    chunks = random_chunks(rng, stream, with_writes=False)

    stats = CacheHierarchy(list(params)).run(iter(chunks))
    assert_matches_ground_truth(
        stats, *ground_truth(params, chunks, WritePolicy.WRITE_AROUND))


def test_engine_mode_detection():
    """Every engine-driven level takes the per-level path: equal line
    sizes no longer select a shared-partition mode."""
    def modes(params):
        support = CacheHierarchy(list(params)).engine_support()
        return [ls.mode for ls in support.levels]

    assert modes(GEOMETRIES["equal_lines_shared"]) == ["per_level"] * 2
    assert modes(GEOMETRIES["paper_mixed_lines"]) == ["per_level"] * 2
    assert modes(GEOMETRIES["two_way_l2"]) == ["per_level", "assoc_scan"]
    assert modes(GEOMETRIES["four_way_l2"]) == ["per_level", "assoc_scan"]
    assert modes(GEOMETRIES["fully_assoc_l1"]) == ["assoc_scan",
                                                    "per_level"]
    inverted = (CacheParams(64 * 1024, 64, 1, "L1"),
                CacheParams(4 * 1024, 64, 1, "L2"))
    assert modes(inverted) == ["per_level"] * 2
