"""Scalar-vs-batch bit-identity for the vectorised access datapath.

``DtlController.access_batch`` promises results identical to looping
scalar ``access()`` over the same trace: DSNs, hit classes, per-access
latency values, wake penalties, write routing, cache/counter state, and
power states all match.  Float *totals* (registry accumulators) are
compared with a tight relative tolerance because the batch path sums in
one reduction; everything integer is compared exactly (docs/PERF.md).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.config import DtlConfig
from repro.core.controller import LOOK_AHEAD_ACCESSES, DtlController
from repro.core.segment_cache import SegmentCacheConfig
from repro.core.self_refresh import ChannelPhase
from repro.dram.geometry import DramGeometry
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, SmcCorruptionFault
from repro.server.server import server_fault_plan
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


def run_scalar(controller: DtlController, hpas, writes, now_ns=0,
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
    config = small_config(window_ns=1000, profiling_threshold_ns=5000)
    scalar, batch = build_pair(config)
    hpas, writes = random_trace(config, 400, seed)
    quiet_rank_segment = 0  # concentrate later traffic away from rank 0
    for stage, now_ns in enumerate((0, 2000, 10_000, 20_000)):
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
                    profiling_threshold_ns=200_000,
                    background_migration=True)
    defaults.update(overrides)
    return DtlConfig(**defaults)


def serve_step(controller: DtlController, clock_ns: int, n: int) -> int:
    """What a shard does after every applied request
    (``ControllerShard.apply_access_batch``); returns the new clock."""
    clock_ns += n * 100
    controller.tick(clock_ns)
    controller.end_window()
    controller.pump_migrations(clock_ns, lines=8)
    return clock_ns


def served_call(controller: DtlController, call: int, n: int = 128):
    """Call number ``call`` of the interleaved stream: the host, the
    HPAs and the write mask.  Six VMs take turns; each draws its ``n``
    accesses like a ``serve_clean`` tenant (bench/wl_serve.py: zipf 1.2
    over 16 segments, 30 % writes) from its own 16 segments — and so
    its own 16 L2 sets — of its first AU: the six hot sets fit the L2
    and together overflow the 64-entry L1."""
    config = controller.config
    tenant = call % (SERVED_HOSTS * SERVED_VMS)
    host_id, vm = tenant % SERVED_HOSTS, tenant // SERVED_HOSTS
    rng = np.random.default_rng(call)
    weights = np.arange(1, 17, dtype=np.float64) ** -1.2
    segments = 16 * tenant + rng.choice(16, size=n,
                                        p=weights / weights.sum())
    hpas = (segments * config.geometry.segment_bytes
            + vm * SERVED_AUS * config.au_bytes)
    return host_id, hpas, rng.random(n) < 0.3


def chunks_per_lookup(controller: DtlController) -> list[int]:
    """Shadow the SMC's per-chunk method: the returned list gains one
    entry per ``lookup_batch`` call, the number of chunks it ran."""
    smc = controller.translation.smc
    tally: list[int] = []
    run_chunk, lookup = smc._run_chunk, smc.lookup_batch

    def counted_run_chunk(*args):
        tally[-1] += 1
        return run_chunk(*args)

    def counted_lookup(*args, **kwargs):
        tally.append(0)
        return lookup(*args, **kwargs)

    smc._run_chunk, smc.lookup_batch = counted_run_chunk, counted_lookup
    return tally


def fires_per_translation(controller: DtlController) -> list[tuple]:
    """Shadow the translation: the returned list gains one entry per
    ``translate_hsn_batch`` call — how many calls it translated, how
    many accesses, and the offsets of the SMC corruptions among them."""
    translation = controller.translation
    tally: list[tuple] = []
    translate = translation.translate_hsn_batch

    def recorded(hsns, stops=None, fires=()):
        tally.append((len(stops or (len(hsns),)), len(hsns),
                      [offset for offset, _ in fires]))
        return translate(hsns, stops, fires)

    translation.translate_hsn_batch = recorded
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
    clock_ns = 0
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
        clock_ns += n * 100
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
    """Both rules that end a chunk, and a case that no longer does,
    inside calls of a dozen accesses.  L1 capacity is the cut made
    before a chunk runs; the chunk itself ends before a fill whose L2
    victim is a distinct it already ran — one it filled, promoted, or
    that hit in L1."""
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
    # A filled victim (at the fifth access): set 7 is empty when the
    # chunk starts, the first four fills take its four free ways, and
    # the fifth distinct's fill would evict the first of them.  The second chunk starts there.  Its fills evict
    # the first two HSNs from both levels before their turn — legal, they
    # have not been looked up in that chunk — so their return is two
    # full misses inside it, not a third chunk.
    result = call(same_set + same_set[:2], expect_chunks=2)
    assert not result.smc_l1_hits[6] and not result.smc_l2_hits[6]
    # No cut any more: an L1-resident HSN and a full miss in its set share
    # a chunk when the fill takes a free way (segment 9: AU 0's is
    # resident, AU 1's never seen; the plan used to cut before the miss
    # and again before the return, three chunks).
    call([9], expect_chunks=1)
    result = call([9, per_au + 9, 9], expect_chunks=1)
    assert result.smc_l1_hits.tolist() == [True, False, True]
    # A victim that hit in L1 (at the second access): set 3 is full and
    # its L2 LRU entry, AU 0's segment 3, is also in L1.  It hits in L1,
    # which does not move it in L2, so AU 4's fill would evict it and
    # the chunk ends before that fill.  The next
    # chunk's fill evicts it before its turn, and its return is a miss.
    quad = [au * per_au + 3 for au in range(5)]
    call(quad[:4], expect_chunks=1)
    result = call([quad[0], quad[4], quad[0]], expect_chunks=2)
    assert result.smc_l1_hits.tolist() == [True, False, False]
    assert not result.smc_l2_hits.any()
    # L1 capacity (before the chunk runs, at the 65th distinct): 100 distinct
    # segments in a 128-access call.
    wide = np.arange(128) % 100 + 16
    call(wide, expect_chunks=2)
    # ...and a repeat of the last 64 of them is one all-hit chunk.
    result = call(wide[-64:], expect_chunks=1)
    assert result.smc_l1_hits.all()
    # A promoted victim (at the fifth access): set 7's four residents
    # are in L2 only now (the wide call pushed them out of L1), all four
    # promote, and the fill that follows would evict the first of them.
    residents = same_set[4:] + same_set[:2]
    result = call(residents + same_set[2:3], expect_chunks=2)
    assert result.smc_l2_hits.tolist() == [True] * 4 + [False]


# -- look-ahead across calls ---------------------------------------------------
#
# A queued call is ``(host_id, hpas, writes, t_ns)``: ``t_ns`` is the
# request timestamp a shard folds into its clock before the call
# (``None``: untimed).  The reference serves calls one by one; its twin
# serves the same calls as a shard's apply task does when it finds them
# all queued (``ControllerShard._apply_lookahead``).


def _run(datapath_call):
    return datapath_call()


def serve_one_by_one(controller: DtlController, calls, clock_ns: float,
                     run=_run):
    """``run`` receives every datapath call (never a hook) as a thunk;
    tests/core/test_call_budget.py counts dispatches through it."""
    results = []
    for host_id, hpas, writes, t_ns in calls:
        if t_ns is not None:
            clock_ns = max(clock_ns, t_ns)
        results.append(run(lambda: controller.access_batch(
            host_id, hpas, writes, now_ns=clock_ns)))
        clock_ns = serve_step(controller, clock_ns, len(hpas))
    return results, clock_ns


def serve_looking_ahead(controller: DtlController, calls, clock_ns: float,
                        run=_run):
    """Returns the results, the clock and the prefix lengths taken."""
    results, prefixes = [], []
    while calls:
        lengths = [len(hpas) for _, hpas, _, _ in calls]
        ticks_ns, tick_ns, now_ns = [], clock_ns, None
        for (_, _, _, t_ns), length in zip(calls, lengths):
            if t_ns is not None:
                tick_ns = max(tick_ns, t_ns)
            if now_ns is None:
                now_ns = tick_ns
            tick_ns += length * 100
            ticks_ns.append(tick_ns)
        count = controller.look_ahead_calls(lengths, ticks_ns, now_ns)
        prefix, calls = calls[:count], calls[count:]
        prefixes.append(count)
        if count == 1:
            served, clock_ns = serve_one_by_one(controller, prefix, clock_ns,
                                                run)
            results += served
            continue
        stops = list(itertools.accumulate(lengths[:count]))
        ahead = run(lambda: controller.look_ahead(
            np.repeat([host_id for host_id, _, _, _ in prefix],
                      lengths[:count]),
            np.concatenate([hpas for _, hpas, _, _ in prefix]), stops))
        start = 0
        for (_, _, writes, t_ns), stop in zip(prefix, stops):
            if t_ns is not None:
                clock_ns = max(clock_ns, t_ns)
            results.append(run(lambda: controller.serve_call(
                ahead.call(start, stop), writes, clock_ns)))
            clock_ns = serve_step(controller, clock_ns, stop - start)
            start = stop
    return results, clock_ns, prefixes


def assert_twins_identical(one: DtlController, other: DtlController):
    """Everything observable, exactly — float accumulators included."""
    from tests.faults.test_batch_faults import injector_state
    assert one.metrics.counter_values() == other.metrics.counter_values()
    assert (one.metrics.histogram_values()
            == other.metrics.histogram_values())
    for level in ("l1", "l2"):
        mine = getattr(one.translation.smc, level)
        theirs = getattr(other.translation.smc, level)
        assert mine.hsns() == theirs.hsns()  # contents in LRU order
        assert sorted(mine.items()) == sorted(theirs.items())
    assert ({dsn: one.tables.hsn_of_dsn(dsn)
             for dsn in one.tables.live_dsns()}
            == {dsn: other.tables.hsn_of_dsn(dsn)
                for dsn in other.tables.live_dsns()})
    for rank_id, rank in one.device.ranks.items():
        twin = other.device.ranks[rank_id]
        assert (rank.state, rank.access_count) \
            == (twin.state, twin.access_count), rank_id
    assert one.trace.counts_by_kind() == other.trace.counts_by_kind()
    assert access_events(one) == access_events(other)
    if one.self_refresh is not None:
        mine, theirs = one.self_refresh, other.self_refresh
        assert mine.events == theirs.events
        assert mine._channels == theirs._channels
        assert np.array_equal(mine.access_bits, theirs.access_bits)
        assert np.array_equal(mine.planned, theirs.planned)
    if one._faults is not None:
        assert injector_state(one._faults) == injector_state(other._faults)


def assert_results_identical(expected, results):
    assert len(expected) == len(results)
    for want, got in zip(expected, results):
        for column in ("dsns", "dpas", "channels", "ranks", "latency_ns",
                       "smc_l1_hits", "smc_l2_hits", "wake_penalty_ns",
                       "routed_to_new_dsn"):
            assert np.array_equal(getattr(want, column),
                                  getattr(got, column)), column


def served_pair(plan: FaultPlan | None = None, **overrides):
    """A reference and its twin in the served shape, armed with their
    own injector over ``plan`` when one is given."""
    pair = build_pair(served_config(**overrides), SERVED_AUS, SERVED_HOSTS,
                      SERVED_VMS, ring=4 * max(CALL_LENGTHS))
    if plan is not None:
        for controller in pair:
            controller.arm_faults(FaultInjector(
                plan, registry=controller.metrics, trace=controller.trace))
    return pair


def queued(controller: DtlController, call: int, n: int = 128,
           t_ns: int | None = None):
    return (*served_call(controller, call, n), t_ns)


def check_group(reference, twin, calls, clock_ns):
    """Serve ``calls`` both ways from ``clock_ns``; returns the twin's
    prefix lengths and the clock both end on."""
    expected, clock = serve_one_by_one(reference, calls, clock_ns)
    results, twin_clock, prefixes = serve_looking_ahead(twin, calls,
                                                        clock_ns)
    assert twin_clock == clock
    assert_results_identical(expected, results)
    assert_twins_identical(reference, twin)
    return prefixes, clock


@pytest.mark.parametrize("mode", ["clean", "chaos", "sr-off"])
def test_look_ahead_identity_in_served_shape(mode):
    """Any grouping of the same call order leaves the same controller."""
    reference, twin = served_pair(
        server_fault_plan(0, 0) if mode == "chaos" else None,
        enable_self_refresh=mode != "sr-off")
    translated = fires_per_translation(twin)
    rng = np.random.default_rng(23)
    clock_ns, call, prefixes = 0, 0, []
    while call < 15 * len(CALL_LENGTHS):
        calls = []
        for _ in range(int(rng.integers(1, 9))):
            n = CALL_LENGTHS[(call + call // len(CALL_LENGTHS))
                             % len(CALL_LENGTHS)]
            # Every ninth request carries a timestamp ahead of the clock.
            t_ns = (clock_ns + 30_000 * len(calls) if call % 9 == 4
                    else None)
            calls.append(queued(reference, call, n, t_ns))
            call += 1
        taken, clock_ns = check_group(reference, twin, calls, clock_ns)
        prefixes += taken
        reference.trace.clear()
        twin.trace.clear()
    # The shape held: look-aheads of several calls served a good share
    # and, where it can, self-refresh ran its whole cycle under them.
    assert sum(taken for taken in prefixes if taken > 1) > call // 3
    assert max(prefixes) >= 4
    counters = reference.metrics.counter_values()
    if mode != "sr-off":
        assert counters["sr.entries"] and counters["sr.swaps"]
        assert counters["sr.exits"]
    if mode == "chaos":
        assert counters["faults.injected.smc.lookup"] >= 3
        assert counters["faults.injected.cxl.access"] >= 3
        # Hostile condition: a look-ahead of several calls ran through
        # a corruption, lookups after it translated in the same pass.
        assert any(calls > 1 and any(offset < n - 1 for offset in offsets)
                   for calls, n, offsets in translated)


class SliceFailure(RuntimeError):
    """Raised by :func:`failing_screen` on its chosen call."""


def failing_screen(controller: DtlController, failing: int) -> None:
    """Make the self-refresh screen of the controller's ``failing``-th
    call from now on raise, after it has counted the call's accesses —
    a slice that raises mid-run, past some of its side effects."""
    policy = controller.self_refresh
    screen = policy.on_access_batch
    calls = itertools.count()

    def screened(*args):
        penalties = screen(*args)
        if next(calls) == failing:
            raise SliceFailure(f"call {failing}")
        return penalties

    policy.on_access_batch = screened


def assert_telemetry_identical(one: DtlController, other: DtlController):
    assert one.metrics.counter_values() == other.metrics.counter_values()
    # Bucket counts, sample counts and float totals, exactly.
    assert (one.metrics.histogram_values()
            == other.metrics.histogram_values())
    assert one.trace.counts_by_kind() == other.trace.counts_by_kind()
    assert (one.trace.recorded, one.trace.dropped) \
        == (other.trace.recorded, other.trace.dropped)


@pytest.mark.parametrize("failing", [0, 1, 3])
def test_a_raising_slice_folds_telemetry_as_one_by_one(failing):
    """Four calls share a look-ahead and one slice raises (the first, a
    middle one, or the last, which folds the telemetry of the others
    on its way out): the ``dtl.*`` counters, every histogram's buckets,
    count and float total, and the ring's tallies end where serving the
    four one by one leaves them, and so does a ``telemetry_snapshot()``
    taken right after — the ring's within-batch order, the one thing
    docs/PERF.md exempts, is not in a snapshot."""
    reference, twin = served_pair()
    clock_ns = 0
    for call in range(12):  # warm, both ways alike
        for controller in (reference, twin):
            host_id, hpas, writes = served_call(controller, call)
            controller.access_batch(host_id, hpas, writes, now_ns=clock_ns)
            serve_step(controller, clock_ns, len(hpas))
        clock_ns += 128 * 100
    calls = [served_call(reference, call) for call in range(12, 16)]
    for controller in (reference, twin):
        failing_screen(controller, failing)
    one_by_one = []
    clock = clock_ns
    for host_id, hpas, writes in calls:
        try:
            one_by_one.append(reference.access_batch(host_id, hpas, writes,
                                                     now_ns=clock))
        except SliceFailure:
            one_by_one.append(None)
        else:
            clock = serve_step(reference, clock, len(hpas))
    stops = list(itertools.accumulate(len(hpas) for _, hpas, _ in calls))
    assert twin.look_ahead_calls([128] * 4,
                                 [clock_ns + 12_800 * k for k in
                                  range(1, 5)], clock_ns) == 4
    ahead = twin.look_ahead(
        np.repeat([host_id for host_id, _, _ in calls], 128),
        np.concatenate([hpas for _, hpas, _ in calls]), stops)
    looked_ahead = []
    clock, start = clock_ns, 0
    for (_, _, writes), stop in zip(calls, stops):
        try:
            looked_ahead.append(twin.serve_call(ahead.call(start, stop),
                                                writes, clock))
        except SliceFailure:
            looked_ahead.append(None)
        else:
            clock = serve_step(twin, clock, stop - start)
        start = stop
    assert [result is None for result in looked_ahead] \
        == [call == failing for call in range(4)]
    assert_results_identical([r for r in one_by_one if r is not None],
                             [r for r in looked_ahead if r is not None])
    assert_telemetry_identical(reference, twin)
    assert (reference.telemetry_snapshot(now_ns=clock).to_dict()
            == twin.telemetry_snapshot(now_ns=clock).to_dict())
    assert_twins_identical(reference, twin)


def test_look_ahead_stops_at_a_pending_migration():
    reference, twin = served_pair()
    for controller in (reference, twin):
        hsn = controller.host_layout.pack_hsn(0, 0, 1)
        dsn = controller.tables.walk(hsn).dsn
        layout = controller.device_layout
        partner = next(
            free for free in range(controller.geometry.total_segments)
            if not controller.tables.is_dsn_live(free)
            and layout.channel_of_dsn(free) == layout.channel_of_dsn(dsn))
        controller.allocator.reserve_specific(partner)
        controller.migration.submit(hsn, dsn, partner)
    calls = [queued(reference, call) for call in range(4)]
    prefixes, _ = check_group(reference, twin, calls, 0)
    assert prefixes == [1, 1, 1, 1]
    assert twin.migration.has_tracked_requests


def test_look_ahead_stops_where_a_queued_timestamp_lets_profiling_end():
    """The over-eager case: a clock jump carried by the third queued
    request — shorter than the profiling threshold, but channel 0 has
    been quiet for a while already — lets its timer run out at that
    request's tick, the planned swaps execute, and segments the fourth
    request touches move."""
    reference, twin = served_pair()
    warm = [queued(reference, call) for call in range(12)]
    _, clock_ns = check_group(reference, twin, warm[:6], 0)
    _, clock_ns = check_group(reference, twin, warm[6:], clock_ns)
    policy = twin.self_refresh
    assert all(policy.phase(channel) is ChannelPhase.PROFILING
               and policy._planned_swaps(channel, policy._channels[channel])
               for channel in range(2))
    calls = [queued(reference, call) for call in range(12, 16)]
    calls[2] = (*calls[2][:3], clock_ns + 130_000)
    host_id, hpas, _, _ = calls[3]
    layout = twin.host_layout
    hsn_locals, _ = layout.split_hpa_batch(hpas)
    mapped_before = twin.tables.walk_batch(layout.pack_hsn_batch(
        host_id, hsn_locals // layout.segments_per_au,
        hsn_locals % layout.segments_per_au))
    swaps_before = twin.metrics.counter_values()["sr.swaps"]
    prefixes, _ = check_group(reference, twin, calls, clock_ns)
    assert prefixes == [3, 1]
    assert twin.metrics.counter_values()["sr.swaps"] > swaps_before
    last = twin.trace.events(EventKind.ACCESS)[-len(hpas):]
    assert any(event.data["dsn"] != int(dsn)
               for event, dsn in zip(last, mapped_before))


def test_look_ahead_stops_before_an_idle_channel_can_enter():
    """Both channels are IDLE when the group starts, start profiling at
    its first tick and enter self-refresh at its fourth."""
    reference, twin = served_pair()
    policy = twin.self_refresh
    assert all(policy.phase(channel) is ChannelPhase.IDLE
               for channel in range(2))
    calls = [queued(reference, call) for call in range(0, 36, 6)]
    calls[3] = (*calls[3][:3], 400_000)
    prefixes, _ = check_group(reference, twin, calls, 0)
    assert prefixes == [4, 2]
    assert [event.kind for event in policy.events[:2]] \
        == ["victim_selected"] * 2
    entries = [event for event in policy.events if event.kind == "enter_sr"]
    assert {event.time_ns for event in entries} == {412_800}
    assert sum(event.swaps for event in entries) > 0


@pytest.mark.parametrize("fire_at", [300, 255])
def test_look_ahead_runs_through_an_smc_corruption(fire_at):
    """The corrupted entry matters from the next lookup on, so the SMC
    lookup cuts a chunk after the firing one and drops the entry there —
    inside a call (300) or on a call's last lookup (255), the four calls
    still share one look-ahead and one ``lookup_batch``."""
    plan = FaultPlan(specs=(SmcCorruptionFault(start=fire_at,
                                               period=10 ** 6),),
                     name=f"corrupt-{fire_at}")
    reference, twin = served_pair(plan)
    lookups = chunks_per_lookup(twin)
    translated = fires_per_translation(twin)
    calls = [queued(reference, call) for call in range(4)]
    prefixes, _ = check_group(reference, twin, calls, 0)
    assert prefixes == [4]
    assert len(lookups) == 1
    assert translated == [(4, 512, [fire_at])]
    assert twin.metrics.counter_values()["faults.injected.smc.lookup"] == 1


@pytest.mark.parametrize("armed", [False, True], ids=["clean", "armed"])
def test_look_ahead_with_a_call_of_one_access(armed):
    """Every call is one vector pass, armed or not, so the short one
    rides along."""
    plan = FaultPlan(specs=(SmcCorruptionFault(start=10 ** 6,
                                               period=10 ** 6),),
                     name="never")
    reference, twin = served_pair(plan if armed else None)
    calls = [queued(reference, 0), queued(reference, 1, n=1),
             queued(reference, 2), queued(reference, 3)]
    prefixes, _ = check_group(reference, twin, calls, 0)
    assert prefixes == [4]


def test_look_ahead_holds_a_bounded_number_of_accesses():
    reference, twin = served_pair()
    calls = [queued(reference, call) for call in range(10)]
    prefixes, clock_ns = check_group(reference, twin, calls, 0)
    assert prefixes == [LOOK_AHEAD_ACCESSES // 128, 2]
    calls = [queued(reference, 10), queued(reference, 11, n=4096),
             queued(reference, 12)]
    prefixes, _ = check_group(reference, twin, calls, clock_ns)
    assert prefixes == [1, 1, 1]


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
