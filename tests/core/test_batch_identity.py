"""Scalar-vs-batch bit-identity for the vectorised access datapath.

``DtlController.access_batch`` promises results identical to looping
scalar ``access()`` over the same trace: DSNs, hit classes, per-access
latency values, wake penalties, write routing, cache/counter state, and
power states all match.  Float *totals* (registry accumulators) are
compared with a tight relative tolerance because the batch path sums in
one reduction; everything integer is compared exactly (docs/PERF.md).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.config import DtlConfig
from repro.core.controller import (SCALAR_ACCESS_WARN_THRESHOLD,
                                   DtlController)
from repro.core.segment_cache import SegmentCacheConfig
from repro.dram.geometry import DramGeometry
from repro.errors import PerformanceWarning
from repro.telemetry import EventKind, EventTrace, MetricsRegistry
from repro.units import MIB

SMALL_GEOMETRY = DramGeometry(channels=2, ranks_per_channel=4,
                              rank_bytes=64 * MIB, segment_bytes=2 * MIB)
#: Tiny SMC so a few hundred accesses cross many replay-chunk boundaries.
SMALL_CACHE = SegmentCacheConfig(l1_entries=4, l2_entries=8, l2_ways=2)


def small_config(**overrides) -> DtlConfig:
    defaults = dict(geometry=SMALL_GEOMETRY, au_bytes=8 * MIB,
                    cache=SMALL_CACHE)
    defaults.update(overrides)
    return DtlConfig(**defaults)


def build_pair(config: DtlConfig, num_aus: int = 4, hosts: int = 1,
               vms: int = 1, ring: int | None = None,
               ) -> tuple[DtlController, DtlController]:
    """Two identically prepared controllers (one per datapath), each
    with ``vms`` VMs of ``num_aus`` AUs on every one of ``hosts`` hosts
    (a host's ``k``-th VM holds its AUs ``k * num_aus`` onwards).
    ``ring`` sizes the event ring for calls longer than the default
    one: which ``ACCESS`` events survive an overflow depends on how the
    other kinds interleave with them, which is not promised."""
    pair = []
    for _ in range(2):
        controller = DtlController(
            config, trace=EventTrace(ring) if ring else None)
        for host_id in range(hosts):
            for _ in range(vms):
                controller.allocate_vm(host_id, num_aus * config.au_bytes)
        pair.append(controller)
    return pair[0], pair[1]


def random_trace(config: DtlConfig, n: int, seed: int,
                 num_aus: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Zipf-reuse HPAs (host-local) plus a mixed write mask."""
    rng = np.random.default_rng(seed)
    seg = config.geometry.segment_bytes
    footprint = num_aus * config.au_bytes
    segments = footprint // seg
    hot = rng.zipf(1.4, n) % segments
    hpas = hot * seg + rng.integers(0, seg, n)
    return hpas.astype(np.int64), rng.random(n) < 0.3


def run_scalar(controller: DtlController, hpas, writes, now_ns=0.0,
               host_id=0):
    return [controller.access(host_id, int(hpa), bool(write), now_ns=now_ns)
            for hpa, write in zip(hpas, writes)]


def assert_results_match(scalar_results, batch_result):
    assert np.array_equal([r.dsn for r in scalar_results],
                          batch_result.dsns)
    assert np.array_equal([r.dpa for r in scalar_results],
                          batch_result.dpas)
    assert np.array_equal([r.channel for r in scalar_results],
                          batch_result.channels)
    assert np.array_equal([r.rank for r in scalar_results],
                          batch_result.ranks)
    assert np.array_equal([r.latency_ns for r in scalar_results],
                          batch_result.latency_ns)
    assert np.array_equal([r.smc_l1_hit for r in scalar_results],
                          batch_result.smc_l1_hits)
    assert np.array_equal([r.smc_l2_hit for r in scalar_results],
                          batch_result.smc_l2_hits)
    assert np.array_equal([r.wake_penalty_ns for r in scalar_results],
                          batch_result.wake_penalty_ns)
    assert np.array_equal([r.routed_to_new_dsn for r in scalar_results],
                          batch_result.routed_to_new_dsn)


def access_events(controller: DtlController) -> list[dict]:
    """The ring's ``ACCESS`` events, oldest first (docs/PERF.md: "the
    final ring contents match the scalar loop")."""
    return [event.to_dict()
            for event in controller.trace.events(EventKind.ACCESS)]


def assert_state_match(scalar: DtlController, batch: DtlController):
    s_smc, b_smc = scalar.translation.smc, batch.translation.smc
    for level in ("l1", "l2"):
        s_stats = getattr(s_smc, level).stats
        b_stats = getattr(b_smc, level).stats
        assert s_stats.hits == b_stats.hits
        assert s_stats.misses == b_stats.misses
        assert s_stats.invalidations == b_stats.invalidations
    assert s_smc.l1.hsns() == b_smc.l1.hsns()
    assert sorted(s_smc.l2.hsns()) == sorted(b_smc.l2.hsns())
    assert scalar.translation.table_walks == batch.translation.table_walks
    assert (scalar.translation.translation_count
            == batch.translation.translation_count)
    assert np.isclose(scalar.translation.total_latency_ns,
                      batch.translation.total_latency_ns, rtol=1e-9)
    assert scalar.access_count == batch.access_count
    for rank_id, s_rank in scalar.device.ranks.items():
        b_rank = batch.device.ranks[rank_id]
        assert s_rank.access_count == b_rank.access_count, rank_id
        assert s_rank.state is b_rank.state, rank_id
    assert (scalar.trace.counts_by_kind()
            == batch.trace.counts_by_kind())
    assert access_events(scalar) == access_events(batch)
    if scalar.self_refresh is not None:
        s_sr, b_sr = scalar.self_refresh, batch.self_refresh
        assert np.array_equal(s_sr.access_bits, b_sr.access_bits)
        assert np.array_equal(s_sr.planned, b_sr.planned)
        for channel in range(scalar.geometry.channels):
            assert s_sr.phase(channel) is b_sr.phase(channel)
            assert (s_sr._channels[channel].window_counts
                    == b_sr._channels[channel].window_counts)
    s_hist = scalar.metrics.histogram("dtl.access_latency_ns")
    b_hist = batch.metrics.histogram("dtl.access_latency_ns")
    assert s_hist.counts == b_hist.counts
    assert s_hist.count == b_hist.count
    assert np.isclose(s_hist.total, b_hist.total, rtol=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_identity_default_policies(seed):
    config = small_config()
    scalar, batch = build_pair(config)
    hpas, writes = random_trace(config, 800, seed)
    scalar_results = run_scalar(scalar, hpas, writes)
    batch_result = batch.access_batch(0, hpas, writes)
    assert_results_match(scalar_results, batch_result)
    assert_state_match(scalar, batch)


@pytest.mark.parametrize("seed", [0, 7])
def test_identity_without_self_refresh(seed):
    config = small_config(enable_self_refresh=False,
                          enable_power_down=False)
    scalar, batch = build_pair(config)
    hpas, writes = random_trace(config, 600, seed)
    scalar_results = run_scalar(scalar, hpas, writes)
    batch_result = batch.access_batch(0, hpas, writes)
    assert_results_match(scalar_results, batch_result)
    assert_state_match(scalar, batch)


@pytest.mark.parametrize("seed", [0, 11])
def test_identity_with_migrations_in_flight(seed):
    """Writes to migrating segments replay the conflict protocol."""
    config = small_config()
    scalar, batch = build_pair(config)
    rng = np.random.default_rng(seed)
    for controller in (scalar, batch):
        live = controller.tables.live_dsns()
        free = [dsn for dsn in range(controller.geometry.total_segments)
                if not controller.tables.is_dsn_live(dsn)]
        submitted = 0
        for dsn in live:
            if submitted >= 3:
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
            submitted += 1
        assert submitted == 3
        # Partial progress on one, completion window on another: the
        # trace exercises abort, in-progress, and redirect routing.
        controller.migration.step_channel(0, lines=5)
        assert controller.migration.has_tracked_requests
    hpas, writes = random_trace(config, 500, seed)
    scalar_results = run_scalar(scalar, hpas, writes)
    batch_result = batch.access_batch(0, hpas, writes)
    assert_results_match(scalar_results, batch_result)
    assert_state_match(scalar, batch)
    assert (scalar.migration.stats.aborts == batch.migration.stats.aborts)
    assert (scalar.migration.stats.foreground_redirects
            == batch.migration.stats.foreground_redirects)


@pytest.mark.parametrize("seed", [0, 3])
def test_identity_across_self_refresh_phases(seed):
    """Drive channels through PROFILING/SELF_REFRESH and keep identity."""
    config = small_config(window_ns=1000.0, profiling_threshold_ns=5000.0)
    scalar, batch = build_pair(config)
    hpas, writes = random_trace(config, 400, seed)
    quiet_rank_segment = 0  # concentrate later traffic away from rank 0
    for stage, now_ns in enumerate((0.0, 2000.0, 10_000.0, 20_000.0)):
        for controller in (scalar, batch):
            controller.end_window()
            controller.tick(now_ns)
        scalar_results = run_scalar(scalar, hpas, writes, now_ns=now_ns)
        batch_result = batch.access_batch(0, hpas, writes, now_ns=now_ns)
        assert_results_match(scalar_results, batch_result)
        assert_state_match(scalar, batch)
    phases = {scalar.self_refresh.phase(c).value
              for c in range(config.geometry.channels)}
    assert phases != {"idle"}, "test never left IDLE; tighten the timers"


# -- short calls in the served traffic shape ---------------------------------

#: What ``repro serve`` puts behind one shard (bench/wl_serve.py), scaled
#: so one VM spans several 256-segment AUs: with the default 64-entry L1
#: and 256-set x 4-way L2, segment ``k`` of every AU of every host lands
#: in L2 set ``k``, and six VMs' requests evict each other from L1
#: between calls.
SERVED_GEOMETRY = DramGeometry(channels=2, ranks_per_channel=4,
                               rank_bytes=256 * MIB,
                               segment_bytes=MIB // 8)
SERVED_HOSTS, SERVED_VMS, SERVED_AUS = 3, 2, 6
#: Around the 64-entry L1, around the served 128, and one long call.
CALL_LENGTHS = (1, 2, 63, 64, 65, 128, 129, 4096)


def served_config(**overrides) -> DtlConfig:
    defaults = dict(geometry=SERVED_GEOMETRY, au_bytes=32 * MIB,
                    profiling_threshold_ns=200_000.0,
                    background_migration=True)
    defaults.update(overrides)
    return DtlConfig(**defaults)


def serve_step(controller: DtlController, clock_ns: float, n: int) -> float:
    """What a shard does after every applied request
    (``ControllerShard.apply_access_batch``); returns the new clock."""
    clock_ns += n * 100.0
    controller.tick(clock_ns)
    controller.end_window()
    controller.pump_migrations(clock_ns / 1e9, lines=8)
    return clock_ns


def chunks_per_lookup(controller: DtlController) -> list[int]:
    """Shadow the SMC's chunk planner: the returned list gains one
    entry per ``lookup_batch`` call, the number of chunks it planned."""
    smc = controller.translation.smc
    tally: list[int] = []
    plan, lookup = smc._plan_chunk, smc.lookup_batch

    def counted_plan(*args):
        tally[-1] += 1
        return plan(*args)

    def counted_lookup(*args, **kwargs):
        tally.append(0)
        return lookup(*args, **kwargs)

    smc._plan_chunk, smc.lookup_batch = counted_plan, counted_lookup
    return tally


@pytest.mark.parametrize("migrating", [False, True],
                         ids=["quiet", "migrating"])
@pytest.mark.parametrize("self_refresh", [True, False],
                         ids=["sr-on", "sr-off"])
def test_short_call_identity_in_served_shape(self_refresh, migrating):
    """Hosts x VMs interleave short calls on one controller."""
    config = served_config(enable_self_refresh=self_refresh)
    scalar, batch = build_pair(config, SERVED_AUS, SERVED_HOSTS, SERVED_VMS,
                               ring=4 * max(CALL_LENGTHS))
    if migrating:
        for controller in (scalar, batch):
            layout = controller.device_layout
            free = [dsn for dsn in range(controller.geometry.total_segments)
                    if not controller.tables.is_dsn_live(dsn)]
            # Host 0's segments 1-3: the hottest ones of its traces.
            for hsn_local in (1, 2, 3):
                hsn = controller.host_layout.pack_hsn(0, 0, hsn_local)
                dsn = controller.tables.walk(hsn).dsn
                partner = next(f for f in free if layout.channel_of_dsn(f)
                               == layout.channel_of_dsn(dsn))
                free.remove(partner)
                controller.allocator.reserve_specific(partner)
                controller.migration.submit(hsn, dsn, partner)
            # One channel's head copy completes (writes redirect), the
            # other's stops halfway (writes below the watermark abort).
            lines = config.geometry.segment_bytes // 64
            controller.migration.step_channel(0, lines=lines)
            controller.migration.step_channel(1, lines=lines // 2)
    chunks = chunks_per_lookup(batch)
    vm_bytes = SERVED_AUS * config.au_bytes
    clock_ns = 0.0
    l1_misses_at_64 = []
    for call in range(3 * len(CALL_LENGTHS)):
        host_id = call % SERVED_HOSTS
        vm = (call // SERVED_HOSTS) % SERVED_VMS
        n = CALL_LENGTHS[(call + call // len(CALL_LENGTHS))
                         % len(CALL_LENGTHS)]
        hpas, writes = random_trace(config, n, call, num_aus=SERVED_AUS)
        hpas += vm * vm_bytes
        scalar_results = run_scalar(scalar, hpas, writes, now_ns=clock_ns,
                                    host_id=host_id)
        batch_result = batch.access_batch(host_id, hpas, writes,
                                          now_ns=clock_ns)
        assert_results_match(scalar_results, batch_result)
        if n in (63, 64, 65):
            l1_misses_at_64.append(int((~batch_result.smc_l1_hits).sum()))
        for controller in (scalar, batch):
            serve_step(controller, clock_ns, n)
        clock_ns += n * 100.0
        assert_state_match(scalar, batch)
        scalar.trace.clear()
        batch.trace.clear()
        if migrating:
            assert (scalar.migration.stats.aborts
                    == batch.migration.stats.aborts)
            assert (scalar.migration.stats.foreground_redirects
                    == batch.migration.stats.foreground_redirects)
    # The shape held: short calls were mostly one chunk, the tenants
    # did evict each other from L1 between calls, and (when asked)
    # copies were in flight under them.
    assert len(chunks) == 3 * len(CALL_LENGTHS)
    assert sorted(chunks)[len(chunks) // 2] == 1
    assert min(l1_misses_at_64) > 8
    if migrating:
        assert batch.migration.has_tracked_requests
        assert (batch.migration.stats.aborts
                + batch.migration.stats.foreground_redirects) > 0


def test_short_call_chunk_cuts_on_congruent_hsns():
    """Every chunk cut, inside calls of a dozen accesses."""
    config = served_config()
    scalar, batch = build_pair(config, SERVED_AUS)
    smc = batch.translation.smc
    assert (smc.l1.entries, smc.l2.sets, smc.l2.ways) == (64, 256, 4)
    chunks = chunks_per_lookup(batch)
    segment_bytes = config.geometry.segment_bytes
    per_au = config.au_bytes // segment_bytes

    def call(segments, expect_chunks):
        hpas = np.asarray(segments, dtype=np.int64) * segment_bytes
        writes = np.zeros(len(hpas), dtype=bool)
        scalar_results = run_scalar(scalar, hpas, writes)
        batch_result = batch.access_batch(0, hpas, writes)
        assert_results_match(scalar_results, batch_result)
        assert_state_match(scalar, batch)
        assert chunks[-1] == expect_chunks
        return batch_result

    # Segment 7 of each of the VM's six AUs: one L2 set, six HSNs.
    same_set = [au * per_au + 7 for au in range(SERVED_AUS)]
    assert len({batch.host_layout.pack_hsn(0, au, 7) % smc.l2.sets
                for au in range(SERVED_AUS)}) == 1
    # L2 associativity: the fifth distinct of a set ends the chunk; its
    # fill evicts the first out of both levels, so the first's return
    # (L1-resident when planned, in a set taking fills) ends the next.
    result = call(same_set + same_set[:2], expect_chunks=3)
    assert not result.smc_l1_hits[6] and not result.smc_l2_hits[6]
    # Back-invalidation hazard: an L1-resident HSN and a full miss in
    # its set never share a chunk, whichever comes first (segment 9:
    # AU 0's is resident, AU 1's never seen).
    call([9], expect_chunks=1)
    result = call([9, per_au + 9, 9], expect_chunks=3)
    assert result.smc_l1_hits.tolist() == [True, False, True]
    # L1 capacity: 100 distinct segments in a 128-access call.
    wide = np.arange(128) % 100 + 16
    call(wide, expect_chunks=2)
    # ...and a repeat of the last 64 of them is one all-hit chunk.
    result = call(wide[-64:], expect_chunks=1)
    assert result.smc_l1_hits.all()


def test_null_telemetry_same_datapath_results():
    """The telemetry fast path changes accounting, not the datapath."""
    config = small_config()
    telemetered = DtlController(config)
    silent = DtlController(config, metrics=MetricsRegistry.null(),
                           trace=EventTrace.disabled())
    for controller in (telemetered, silent):
        controller.allocate_vm(0, 4 * config.au_bytes)
    hpas, writes = random_trace(config, 500, 5)
    loud = telemetered.access_batch(0, hpas, writes)
    quiet = silent.access_batch(0, hpas, writes)
    assert np.array_equal(loud.dsns, quiet.dsns)
    assert np.array_equal(loud.latency_ns, quiet.latency_ns)
    assert np.array_equal(loud.smc_l1_hits, quiet.smc_l1_hits)
    assert np.array_equal(loud.smc_l2_hits, quiet.smc_l2_hits)
    # Nothing was recorded on the silent side.
    assert silent.metrics.counter_values() == {}
    assert silent.trace.recorded == 0
    assert len(silent.trace) == 0
    assert not silent.metrics.enabled
    assert not silent.trace.enabled


def test_histogram_observe_batch_matches_loop():
    registry_a, registry_b = MetricsRegistry(), MetricsRegistry()
    values = np.random.default_rng(0).uniform(0, 500, 2000)
    loop = registry_a.histogram("h", bounds=(1.0, 10.0, 100.0))
    batch = registry_b.histogram("h", bounds=(1.0, 10.0, 100.0))
    for value in values:
        loop.observe(float(value))
    batch.observe_batch(values)
    assert loop.counts == batch.counts
    assert loop.count == batch.count
    assert np.isclose(loop.total, batch.total, rtol=1e-12)


def test_record_tail_tally_matches_record_loop():
    loop, tail = EventTrace(capacity=8), EventTrace(capacity=8)
    dsns = np.arange(30)
    for dsn in dsns:
        loop.record(EventKind.ACCESS, time=5.0, dsn=int(dsn))
    tail.record_tail(EventKind.ACCESS, time=5.0, dsn=dsns)
    assert loop.counts_by_kind() == tail.counts_by_kind()
    assert loop.recorded == tail.recorded
    assert loop.dropped == tail.dropped
    assert loop.to_list() == tail.to_list()
    with pytest.raises(ValueError):
        tail.record_tail(EventKind.ACCESS, dsn=dsns, hsn=dsns[:3])
    with pytest.raises(ValueError):
        tail.record_tail(EventKind.ACCESS)


def test_scalar_loop_performance_warning():
    config = small_config()
    controller = DtlController(config)
    controller.allocate_vm(0, config.au_bytes)
    controller._scalar_access_calls = SCALAR_ACCESS_WARN_THRESHOLD
    with pytest.warns(PerformanceWarning):
        controller.access(0, 0)
    # Warned once; further calls stay silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        controller.access(0, 0)
