"""Seam coverage for the vectorised fallbacks and the SMC level classes.

The batch datapath has three "seams" where vectorised code hands work to
order-sensitive protocol code: chunk boundaries in the SMC lookup,
migration write routing, and the self-refresh event loop.  These tests
pin the seams exactly — chunk-edge migration writes, PROFILING channels
with a rank dropping to MPSM mid-batch, rank decodes with non-zero
segment-index bits.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.addressing import DeviceAddressLayout, SegmentLocation
from repro.core.controller import DtlController
from repro.core.segment_cache import (FullyAssociativeCache,
                                      SegmentCacheConfig,
                                      SetAssociativeCache)
from repro.core.self_refresh import ChannelPhase
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.errors import PowerStateError

from tests.core.way_list_cache_reference import WayListCache
from tests.core.test_batch_identity import (SMALL_GEOMETRY, assert_results_match,
                                            assert_state_match, build_pair,
                                            random_trace, run_scalar,
                                            small_config)

def tiny_cache_config(**overrides):
    cache = SegmentCacheConfig(l1_entries=4, l2_entries=8, l2_ways=2)
    return small_config(cache=cache, **overrides)


def submit_migrations(controller: DtlController, count: int = 3) -> list[int]:
    """Track ``count`` in-flight migrations; returns their old DSNs."""
    live = controller.tables.live_dsns()
    free = [dsn for dsn in range(controller.geometry.total_segments)
            if not controller.tables.is_dsn_live(dsn)]
    old_dsns = []
    for dsn in live:
        if len(old_dsns) >= count:
            break
        channel = controller.device_layout.channel_of_dsn(dsn)
        partner = next((f for f in free
                        if controller.device_layout.channel_of_dsn(f)
                        == channel), None)
        if partner is None:
            continue
        free.remove(partner)
        controller.migration.submit(
            controller.tables.hsn_of_dsn(dsn), dsn, partner)
        old_dsns.append(dsn)
    assert len(old_dsns) == count
    # Partial progress on the channel-0 queue: the first request gains a
    # lines_done watermark (abort fodder), later ones stay untouched.
    controller.migration.step_channel(0, lines=5)
    assert controller.migration.has_tracked_requests
    return old_dsns


# -- chunk-boundary migration writes (satellite: boundary-exact coverage) ----


def test_migration_write_exactly_at_chunk_boundaries():
    """Writes to a migrating segment at every chunk edge.

    With ``l1_entries=4`` the SMC cuts a chunk every 4 distinct
    HSNs, so a trace cycling >4 distinct segments crosses a boundary
    every 4 distincts.  The migrating segment is planted as both the
    *last* distinct of one chunk and the *first* distinct of the next —
    the exact seam where the write-routing protocol and the vectorised
    lookup hand off — and every touch of it is a write.
    """
    config = tiny_cache_config()
    scalar, batch = build_pair(config)
    hot_dsn = None
    for controller in (scalar, batch):
        old_dsns = submit_migrations(controller)
        if hot_dsn is None:
            hot_dsn = old_dsns[0]
        assert old_dsns[0] == hot_dsn, "twin controllers diverged"
    seg = config.geometry.segment_bytes
    hot_hsn = scalar.tables.hsn_of_dsn(hot_dsn)
    fillers = [hsn for hsn in (scalar.tables.hsn_of_dsn(dsn)
                               for dsn in scalar.tables.live_dsns())
               if hsn != hot_hsn]
    assert len(fillers) >= 7
    hsn_seq: list[int] = []
    writes: list[bool] = []
    for round_index in range(6):
        # Three fillers, then the migrating segment: it lands as the 4th
        # distinct (chunk edge) and again as the 1st of the next chunk.
        for k in range(3):
            hsn_seq.append(fillers[(3 * round_index + k) % len(fillers)])
            writes.append(False)
        hsn_seq.extend([hot_hsn, hot_hsn])
        writes.extend([True, True])
    hpas = np.array([hsn * seg for hsn in hsn_seq], dtype=np.int64)
    writes = np.array(writes, dtype=bool)
    scalar_results = run_scalar(scalar, hpas, writes)
    batch_result = batch.access_batch(0, hpas, writes)
    assert_results_match(scalar_results, batch_result)
    assert_state_match(scalar, batch)
    assert scalar.migration.stats.aborts == batch.migration.stats.aborts
    assert (scalar.migration.stats.foreground_redirects
            == batch.migration.stats.foreground_redirects)


# The ids (here and below) are the ones these cases have always printed.
@pytest.mark.parametrize("seed", [0, 11], ids=["0-soa", "11-soa"])
def test_identity_with_migrations_random_trace_per_layout(seed):
    config = tiny_cache_config()
    scalar, batch = build_pair(config)
    for controller in (scalar, batch):
        submit_migrations(controller)
    hpas, writes = random_trace(config, 500, seed)
    scalar_results = run_scalar(scalar, hpas, writes)
    batch_result = batch.access_batch(0, hpas, writes)
    assert_results_match(scalar_results, batch_result)
    assert_state_match(scalar, batch)


# -- PROFILING channels and mid-batch MPSM (satellite: phase seams) ----------


def drive_to_profiling(*controllers: DtlController) -> None:
    for controller in controllers:
        controller.end_window()
        controller.tick(0.0)
        assert any(controller.self_refresh.phase(c) is ChannelPhase.PROFILING
                   for c in range(controller.geometry.channels))


@pytest.mark.parametrize("seed", [0, 3], ids=["0-soa", "3-soa"])
def test_identity_while_profiling_per_layout(seed):
    """CLOCK planner events fire mid-batch; identity must survive them."""
    config = tiny_cache_config(window_ns=1000.0,
                               profiling_threshold_ns=5000.0)
    scalar, batch = build_pair(config)
    drive_to_profiling(scalar, batch)
    hpas, writes = random_trace(config, 400, seed)
    scalar_results = run_scalar(scalar, hpas, writes, now_ns=2000.0)
    batch_result = batch.access_batch(0, hpas, writes, now_ns=2000.0)
    assert_results_match(scalar_results, batch_result)
    assert_state_match(scalar, batch)
    # The trace must actually have exercised the planner seam: at least
    # one segment is planned out of identity on both sides.
    planned = scalar.self_refresh.planned
    assert (planned != np.arange(len(planned))).any()
    assert np.array_equal(planned, batch.self_refresh.planned)


def test_profiling_channel_rank_in_mpsm_raises_at_same_access():
    """A PROFILING channel whose rank drops to MPSM mid-batch.

    Accesses to an MPSM rank cannot be served; the scalar loop raises
    ``PowerStateError`` at the offending access, and the batch event
    loop must raise the same error (the MPSM rank is screened as an
    event and replayed at the exact scalar position, with every earlier
    access on the channel already applied).
    """
    config = small_config(window_ns=1000.0, profiling_threshold_ns=5000.0)
    # A footprint wider than one rank per channel, so the trace can mix
    # healthy-rank and MPSM-rank accesses on the same channel.
    scalar, batch = build_pair(config, num_aus=20)
    drive_to_profiling(scalar, batch)
    seg = config.geometry.segment_bytes
    live = scalar.tables.live_dsns()
    target_dsn = live[0]
    channel = scalar.device_layout.channel_of_dsn(target_dsn)
    rank = scalar.device_layout.rank_of_dsn(target_dsn)
    safe_hsns = [scalar.tables.hsn_of_dsn(dsn) for dsn in live
                 if scalar.device_layout.channel_of_dsn(dsn) == channel
                 and scalar.device_layout.rank_of_dsn(dsn) != rank][:3]
    assert safe_hsns, "need same-channel traffic on healthy ranks"
    for controller in (scalar, batch):
        controller.device.set_rank_state((channel, rank), PowerState.MPSM,
                                         0)
    bad_hsn = scalar.tables.hsn_of_dsn(target_dsn)
    hsn_seq = safe_hsns + [bad_hsn] + safe_hsns
    hpas = np.array([hsn * seg for hsn in hsn_seq], dtype=np.int64)
    writes = np.zeros(len(hpas), dtype=bool)
    with pytest.raises(PowerStateError):
        run_scalar(scalar, hpas, writes, now_ns=2000.0)
    with pytest.raises(PowerStateError):
        batch.access_batch(0, hpas, writes, now_ns=2000.0)
    # The healthy-rank prefix was applied on both sides before the raise.
    s_counts = {rank_id: r.access_count
                for rank_id, r in scalar.device.ranks.items()}
    b_counts = {rank_id: r.access_count
                for rank_id, r in batch.device.ranks.items()}
    assert s_counts == b_counts


# -- rank-mask decodes (satellite: phantom rank indices) ---------------------


def test_rank_decode_masks_stray_high_bits():
    layout = DeviceAddressLayout(SMALL_GEOMETRY)
    geo = SMALL_GEOMETRY
    dsn = layout.pack_dsn(SegmentLocation(
        channel=1, rank=geo.ranks_per_channel - 1,
        index=geo.segments_per_rank - 1))
    # A sentinel-tagged value carries garbage above the rank field; the
    # decode must not surface it as a phantom rank index.
    tagged = dsn | (1 << (geo.channel_bits + geo.segment_index_bits
                          + geo.rank_bits + 3))
    assert layout.rank_of_dsn(tagged) == layout.rank_of_dsn(dsn)
    assert layout.rank_of_dsn(tagged) == geo.ranks_per_channel - 1


def test_unpack_dsn_batch_matches_scalar_with_nonzero_segment_bits():
    fresh = DeviceAddressLayout(SMALL_GEOMETRY)
    # Shifts and masks are derived once and cached beside the one
    # dataclass field: a layout that has them travels through a pickle
    # with them, and still equals (and hashes as) one that has not.
    cached = DeviceAddressLayout(SMALL_GEOMETRY)
    cached.unpack_dsn(0), cached.dsn_bits
    restored = pickle.loads(pickle.dumps(cached))
    assert restored == fresh and hash(restored) == hash(fresh)
    for layout in (fresh, restored):
        check_scalar_and_batch_codecs_agree(layout)


def check_scalar_and_batch_codecs_agree(layout: DeviceAddressLayout) -> None:
    geo = SMALL_GEOMETRY
    # Every (channel, rank) with the *maximum* segment index: all the
    # bits below the rank field are set, which is exactly the shape that
    # leaked into rank decodes before masking.
    locations = [SegmentLocation(c, r, geo.segments_per_rank - 1)
                 for c in range(geo.channels)
                 for r in range(geo.ranks_per_channel)]
    dsns = np.array([layout.pack_dsn(loc) for loc in locations],
                    dtype=np.int64)
    channels, ranks, indices = layout.unpack_dsn_batch(dsns)
    for i, (dsn, loc) in enumerate(zip(dsns.tolist(), locations)):
        assert layout.unpack_dsn(dsn) == loc
        assert (channels[i], ranks[i], indices[i]) == (
            loc.channel, loc.rank, loc.index)
        assert layout.rank_of_dsn(dsn) == loc.rank
        assert layout.channel_of_dsn(dsn) == loc.channel
        assert layout.rank_dsns(loc.channel, loc.rank)[loc.index] == dsn
    # The scalar decoders are the batch decoders: pure bit operations.
    assert np.array_equal(layout.rank_of_dsn(dsns), ranks)
    assert np.array_equal(layout.channel_of_dsn(dsns), channels)
    assert int(ranks.max()) < geo.ranks_per_channel


def test_policy_batch_rank_decode_parity_nonzero_segment_bits():
    """Scalar-parity regression for the self-refresh batch decodes.

    DSNs with all segment-index bits set stress the batch-side
    ``dsns >> rank_shift`` decode: without the mask those bits cannot
    leak (the DSN is well-formed), but the per-rank counters prove the
    batch path bins accesses to the same rank the scalar path does.
    """
    config = small_config()
    scalar, batch = build_pair(config)
    geo = config.geometry
    layout = scalar.device_layout
    live = scalar.tables.live_dsns()
    picks = [dsn for dsn in live
             if layout.unpack_dsn(dsn).index == geo.segments_per_rank - 1]
    if not picks:  # footprint smaller than a rank: take max-index live DSNs
        by_rank = {}
        for dsn in live:
            loc = layout.unpack_dsn(dsn)
            key = (loc.channel, loc.rank)
            if key not in by_rank or loc.index > by_rank[key][1]:
                by_rank[key] = (dsn, loc.index)
        picks = [dsn for dsn, _ in by_rank.values()]
    dsns = np.array(picks * 5, dtype=np.int64)
    for dsn in dsns.tolist():
        scalar.self_refresh.on_access(dsn, 0.0)
    channels, ranks, _ = batch.device_layout.unpack_dsn_batch(dsns)
    batch.self_refresh.on_access_batch(dsns, channels, ranks, 0.0)
    s_counts = {rank_id: r.access_count
                for rank_id, r in scalar.device.ranks.items()}
    b_counts = {rank_id: r.access_count
                for rank_id, r in batch.device.ranks.items()}
    assert s_counts == b_counts
    assert np.array_equal(scalar.self_refresh.access_bits,
                          batch.self_refresh.access_bits)


# -- access-bit index space (satellite: raw-DSN scatter) ---------------------


def test_access_bits_set_at_packed_device_global_dsns():
    """``access_bits`` is indexed by packed DSN on every path.

    The batch scatter ``access_bits[dsns] = True`` uses raw packed DSNs;
    this is correct *because* the scalar path, the CLOCK sweep, and
    ``on_batch`` all index the same device-global space.  With the
    channel IDLE (no planner, no sweep) the set bits must be exactly
    the accessed DSNs, on both paths.
    """
    config = small_config()
    scalar, batch = build_pair(config)
    hpas, writes = random_trace(config, 300, 2)
    scalar_results = run_scalar(scalar, hpas, writes)
    batch_result = batch.access_batch(0, hpas, writes)
    for controller, dsns in ((scalar, [r.dsn for r in scalar_results]),
                             (batch, batch_result.dsns.tolist())):
        bits = controller.self_refresh.access_bits
        assert set(np.nonzero(bits)[0].tolist()) == set(dsns)
    assert np.array_equal(scalar.self_refresh.access_bits,
                          batch.self_refresh.access_bits)


# -- way-list reference vs the SMC level classes (property test) -------------


def _mirror_ops(cache, ref, hsn_space: int, seed: int, steps: int = 2000):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        op = rng.integers(0, 3)
        hsn = int(rng.integers(0, hsn_space))
        if op == 0:
            assert cache.lookup(hsn) == ref.lookup(hsn)
        elif op == 1:
            dsn = int(rng.integers(0, 1 << 16))
            assert cache.insert(hsn, dsn) == ref.insert(hsn, dsn)
        else:
            assert cache.invalidate(hsn) == ref.invalidate(hsn)
        assert (hsn in cache) == (hsn in ref)
        assert len(cache) == len(ref)
    assert cache.hsns() == ref.hsns()
    assert sorted(cache.items()) == sorted(ref.items())
    assert cache.stats.hits == ref.stats.hits
    assert cache.stats.misses == ref.stats.misses
    assert cache.stats.invalidations == ref.stats.invalidations


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fully_associative_soa_matches_dict(seed):
    _mirror_ops(FullyAssociativeCache(entries=8),
                WayListCache(entries=8, ways=8), hsn_space=32, seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_set_associative_soa_matches_dict(seed):
    _mirror_ops(SetAssociativeCache(entries=16, ways=2),
                WayListCache(entries=16, ways=2), hsn_space=64, seed=seed)
