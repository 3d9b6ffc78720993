"""Armed scalar/batch identity: ``access_batch`` under an active plan.

``access_batch`` no longer hands an armed batch to the scalar loop; it
schedules fires by counter arithmetic, and an SMC corruption only cuts a
chunk inside the one SMC lookup (docs/FAULTS.md, "Batches under an
active plan").  The contract is
unchanged: a loop of ``access()`` and one ``access_batch()`` over the
same trace leave twin controllers — result columns, injector counters,
metrics, reliability report — in the same place.  The hostile cases
each assert that the hostile condition really held.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import ConsistencyChecker
from repro.core.controller import BatchAccessResult, DtlController
from repro.dram.power import PowerState
from repro.faults import (CxlLinkFault, EccFault, FaultInjector, FaultPlan,
                          HookPoint, PowerExitFault, SmcCorruptionFault)

from tests.core.test_batch_identity import (assert_results_match,
                                            assert_state_match, random_trace,
                                            run_scalar, small_config)

NUM_AUS = 8


def build_armed_pair(plan: FaultPlan, config=None,
                     ) -> tuple[DtlController, DtlController]:
    """Twin controllers, each with its own injector armed on ``plan``."""
    config = config or small_config()
    pair = []
    for _ in range(2):
        controller = DtlController(config)
        controller.allocate_vm(0, NUM_AUS * config.au_bytes)
        controller.arm_faults(FaultInjector(
            plan, registry=controller.metrics, trace=controller.trace))
        pair.append(controller)
    return pair[0], pair[1]


def injector_state(injector: FaultInjector) -> dict:
    """Every schedule and accounting counter of ``injector`` as plain
    data — the equality probe for "two injectors stand at the same point
    of the same plan" (also used by tests/server/test_chaos_resume.py)."""
    return {
        "plan_name": injector.plan.name,
        "visits": {point.value: count
                   for point, count in injector._visits.items()},
        "spec_visits": list(injector._spec_visits),
        "spec_fires": list(injector._spec_fires),
        "injected": {point.value: count
                     for point, count in injector._injected.items()},
        "detected": injector.detected,
        "recovered": injector.recovered,
        "ecc_corrected": injector.ecc_corrected,
        "ecc_uncorrected": injector.ecc_uncorrected,
        "cxl_retry_counts": dict(injector.cxl_retry_counts),
        "power_exit_failures": injector.power_exit_failures,
    }


def assert_armed_match(scalar: DtlController, batch: DtlController):
    """Everything the two datapaths promise to agree on (integers and
    per-access floats exactly; float *totals* to 1e-9, docs/PERF.md)."""
    assert_state_match(scalar, batch)
    assert injector_state(scalar._faults) == injector_state(batch._faults)
    assert (scalar._faults.report().to_dict()
            == batch._faults.report().to_dict())
    s_counters = scalar.metrics.counter_values()
    b_counters = batch.metrics.counter_values()
    assert s_counters.keys() == b_counters.keys()
    for name, value in s_counters.items():
        if isinstance(value, float):
            assert np.isclose(value, b_counters[name], rtol=1e-9), name
        else:
            assert value == b_counters[name], name
    for controller in (scalar, batch):
        tolerance = len(controller.migration.tracked_requests())
        report = ConsistencyChecker(controller).audit(
            balance_tolerance=tolerance)
        assert report.ok, report.violations


def fires(controller: DtlController, point: HookPoint) -> int:
    return controller._faults.injected(point)


def concat(parts: list[BatchAccessResult]) -> BatchAccessResult:
    """Consecutive sub-batch results joined back into one batch."""
    columns = {column.name: np.concatenate([getattr(part, column.name)
                                            for part in parts])
               for column in dataclasses.fields(BatchAccessResult)
               if column.name != "total_latency_ns"}
    return BatchAccessResult(
        **columns, total_latency_ns=float(columns["latency_ns"].sum()))


# -- property: hypothesis-drawn plans ----------------------------------------

#: Dense (the escalated-soak range) and sparse (the server plan's range).
periods = st.one_of(st.integers(1, 16), st.integers(17, 600))


@st.composite
def specs(draw):
    """One access-path spec with its own non-trivial schedule."""
    start = draw(st.integers(1, 50))
    schedule = dict(
        start=start, period=draw(periods),
        stop=draw(st.one_of(st.just(0),
                            st.integers(start + 1, start + 300))),
        max_fires=draw(st.integers(0, 5)))
    family = draw(st.sampled_from(
        ["error", "stall", "ecc", "ecc-filtered", "smc"]))
    if family == "error":
        return CxlLinkFault(kind="error", retries=draw(st.integers(1, 3)),
                            **schedule)
    if family == "stall":
        return CxlLinkFault(kind="stall", **schedule,
                            stall_ns=draw(st.sampled_from([70.0, 400.0])))
    if family == "smc":
        return SmcCorruptionFault(**schedule)
    filters = {}
    if family == "ecc-filtered":  # rank 1 holds nothing: never eligible
        filters = dict(channel=draw(st.integers(-1, 1)),
                       rank=draw(st.integers(-1, 1)))
    return EccFault(bits=draw(st.integers(1, 2)), **filters, **schedule)


plans = st.builds(
    FaultPlan, seed=st.integers(0, 2**16), name=st.just("prop"),
    specs=st.lists(specs(), min_size=1, max_size=5).map(tuple))


#: One call, or the same trace cut into served-size calls (the lengths
#: of tests/core/test_batch_identity.py::CALL_LENGTHS below 400).
call_lengths = st.sampled_from([400, 1, 2, 63, 64, 65, 128, 129])


@settings(max_examples=40, deadline=None)
@given(plan=plans, seed=st.integers(0, 2**16), call=call_lengths)
def test_identity_under_drawn_plans(plan, seed, call):
    scalar, batch = build_armed_pair(plan)
    hpas, writes = random_trace(small_config(), 400, seed, num_aus=NUM_AUS)
    scalar_results = run_scalar(scalar, hpas, writes, now_ns=500.0)
    batch_result = concat([
        batch.access_batch(0, hpas[at:at + call], writes[at:at + call],
                           now_ns=500.0)
        for at in range(0, len(hpas), call)])
    assert_results_match(scalar_results, batch_result)
    assert_armed_match(scalar, batch)


# -- hostile cases -----------------------------------------------------------

EVERY_HOOK = (CxlLinkFault(start=0, period=63, retries=2),
              CxlLinkFault(start=0, period=63, kind="stall", stall_ns=400.0),
              EccFault(start=0, period=63, bits=1),
              EccFault(start=0, period=63, bits=2, channel=0),
              SmcCorruptionFault(start=0, period=63))


def test_fire_on_first_and_last_access_of_a_batch():
    plan = FaultPlan(specs=EVERY_HOOK, name="edges")
    scalar, batch = build_armed_pair(plan)
    hpas, writes = random_trace(small_config(), 64, 1, num_aus=NUM_AUS)
    # Hostile condition: event 0 and event 63 fire, i.e. the first and
    # the last access of a 64-access batch, on every hook at once (the
    # channel-0 ECC spec counts only its own channel's accesses).
    for spec in EVERY_HOOK:
        assert list(spec.fire_offsets(0, 0, 64)) == [0, 63]
    scalar_results = run_scalar(scalar, hpas, writes)
    batch_result = batch.access_batch(0, hpas, writes)
    assert_results_match(scalar_results, batch_result)
    assert_armed_match(scalar, batch)
    assert fires(batch, HookPoint.CXL_ACCESS) == 4
    assert fires(batch, HookPoint.SMC_LOOKUP) == 2
    assert fires(batch, HookPoint.DRAM_ACCESS) >= 3
    assert batch_result.latency_ns[0] > 400.0
    assert batch_result.latency_ns[-1] > 400.0


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_batches(n):
    plan = FaultPlan(specs=EVERY_HOOK, name="tiny")
    scalar, batch = build_armed_pair(plan)
    hpas, writes = random_trace(small_config(), 24, 2, num_aus=NUM_AUS)
    # Four calls of n accesses each: the counters must advance by n.
    for call in range(4):
        piece = slice(call, call + n)
        scalar_results = run_scalar(scalar, hpas[piece], writes[piece])
        batch_result = batch.access_batch(0, hpas[piece], writes[piece])
        assert len(batch_result) == n
        assert_results_match(scalar_results, batch_result)
    assert batch._faults.visits(HookPoint.CXL_ACCESS) == 4 * n
    assert fires(batch, HookPoint.SMC_LOOKUP) == n  # event 0 only, if any
    # An ordinary call then carries on from the same counters.
    scalar_results = run_scalar(scalar, hpas[4:], writes[4:])
    assert_results_match(scalar_results,
                         batch.access_batch(0, hpas[4:], writes[4:]))
    assert_armed_match(scalar, batch)


@pytest.mark.parametrize("split", range(28, 38))
def test_batch_split_in_two_calls_around_a_fire(split):
    """The schedule is carried by counters, not by call boundaries."""
    specs = (CxlLinkFault(start=32, period=1000),
             EccFault(start=32, period=1000, bits=2),
             SmcCorruptionFault(start=32, period=1000))
    scalar, batch = build_armed_pair(FaultPlan(specs=specs, name="split"))
    hpas, writes = random_trace(small_config(), 64, 3, num_aus=NUM_AUS)
    # Hostile condition: the one fire (event 32) lands before, on, and
    # after the boundary between the two calls as ``split`` sweeps.
    scalar_results = run_scalar(scalar, hpas, writes)
    first = batch.access_batch(0, hpas[:split], writes[:split])
    fired_in_first = fires(batch, HookPoint.SMC_LOOKUP)
    assert fired_in_first == (1 if split > 32 else 0)
    second = batch.access_batch(0, hpas[split:], writes[split:])
    assert fires(batch, HookPoint.SMC_LOOKUP) == 1
    assert_results_match(scalar_results[:split], first)
    assert_results_match(scalar_results[split:], second)
    assert_armed_match(scalar, batch)


def test_three_migrations_in_flight_with_writes():
    plan = FaultPlan(name="migrating", specs=(
        CxlLinkFault(start=3, period=41, retries=2),
        EccFault(start=5, period=37, bits=1),
        SmcCorruptionFault(start=7, period=53)))
    scalar, batch = build_armed_pair(plan)
    hpas, writes = random_trace(small_config(), 500, 4, num_aus=NUM_AUS)
    assert 0.25 < writes.mean() < 0.35
    # Migrate the three most-written segments, so the writes meet them.
    probe = DtlController(small_config())
    probe.allocate_vm(0, NUM_AUS * small_config().au_bytes)
    written, counts = np.unique(
        probe.access_batch(0, hpas, writes).dsns[writes], return_counts=True)
    movers = written[np.argsort(counts)[-3:]].tolist()
    for controller in (scalar, batch):
        free = [dsn for dsn in range(controller.geometry.total_segments)
                if not controller.tables.is_dsn_live(dsn)]
        for dsn in movers:
            channel = controller.device_layout.channel_of_dsn(dsn)
            partner = next(
                f for f in free
                if controller.device_layout.channel_of_dsn(f) == channel)
            free.remove(partner)
            controller.allocator.reserve_specific(partner)
            controller.migration.submit(
                controller.tables.hsn_of_dsn(dsn), dsn, partner)
        # One channel's head copy completes (completion bit set, remap
        # pending: writes redirect), the other's stops halfway (writes
        # below the watermark abort it).
        lines = controller.geometry.segment_bytes // 64
        controller.migration.step_channel(0, lines=lines)
        controller.migration.step_channel(1, lines=lines // 2)
        # Hostile condition: three tracked migrations under the batch.
        assert len(controller.migration.tracked_requests()) == 3
    scalar_results = run_scalar(scalar, hpas, writes)
    batch_result = batch.access_batch(0, hpas, writes)
    assert_results_match(scalar_results, batch_result)
    assert_armed_match(scalar, batch)
    assert (scalar.migration.stats.aborts == batch.migration.stats.aborts)
    assert (scalar.migration.stats.foreground_redirects
            == batch.migration.stats.foreground_redirects)
    # ...and the writes really met them, between cuts.
    assert batch_result.routed_to_new_dsn.any()
    assert (batch.migration.stats.aborts
            + batch.migration.stats.foreground_redirects) > 1
    assert fires(batch, HookPoint.SMC_LOOKUP) >= 8


def test_sr_ranks_asleep_on_both_channels_wake_in_global_order():
    """``sr.exit`` counts wakes across channels; the batch path orders
    them only within one, so it must not wake two channels in one pass."""
    plan = FaultPlan(name="wakes", specs=(
        PowerExitFault(target="sr", period=2, kind="fail", delay_ns=1200.0,
                       failures=2),
        CxlLinkFault(start=1, period=9, kind="stall", stall_ns=70.0)))
    config = small_config(window_ns=1000.0, profiling_threshold_ns=5000.0)
    scalar, batch = build_armed_pair(plan, config)
    probe = DtlController(config)  # where untouched segments still live
    probe.allocate_vm(0, NUM_AUS * config.au_bytes)
    channels = scalar.geometry.channels
    now_ns = 0.0
    for round_ in range(3):
        # Let every channel go quiet until its victim rank sleeps.
        for now_ns in (now_ns + 1.0, now_ns + 2000.0, now_ns + 10_000.0,
                       now_ns + 20_000.0):
            for controller in (scalar, batch):
                controller.end_window()
                controller.tick(now_ns)
        asleep = {rank_id for rank_id, rank in batch.device.ranks.items()
                  if rank.state is PowerState.SELF_REFRESH}
        # A fresh pair of AUs each round: segments that woke a rank are
        # planned out of it before it sleeps again (the paper's cheap
        # re-entry), so only untouched ones still sit in the sleepers.
        hpas, writes = random_trace(config, 120, round_, num_aus=2)
        hpas += round_ * 2 * config.au_bytes
        touched = probe.access_batch(0, hpas, writes)
        first = [int(np.argmax(touched.channels == channel))
                 for channel in range(channels)]
        if first[0] < first[1]:
            hpas[first], writes[first] = hpas[first[::-1]], writes[first[::-1]]
            first.reverse()
        # Hostile condition: ranks asleep on both channels, the trace
        # touches a sleeper on each, and reaches channel 1's first — a
        # channel-by-channel pass would hand channel 0 the fire that
        # belongs to channel 1.
        assert {channel for channel, _ in asleep} == set(range(channels))
        assert first[1] < first[0]
        assert all((int(touched.channels[at]), int(touched.ranks[at]))
                   in asleep for at in first)
        exits_before = fires(batch, HookPoint.SR_EXIT)
        scalar_results = run_scalar(scalar, hpas, writes, now_ns=now_ns)
        batch_result = batch.access_batch(0, hpas, writes, now_ns=now_ns)
        assert_results_match(scalar_results, batch_result)
        assert_armed_match(scalar, batch)
        wakes = np.flatnonzero(batch_result.wake_penalty_ns)
        assert wakes.tolist() == sorted(first)
        # Period 2 over two wakes a round: the globally first one pays.
        assert fires(batch, HookPoint.SR_EXIT) == exits_before + 1
        penalties = batch_result.wake_penalty_ns[wakes]
        assert penalties[0] - penalties[1] == 2400.0


def test_a_dense_plan_stays_one_vector_pass():
    """However densely corruptions fire, a batch is one vector pass: one
    ``translate_hsn_batch`` call, never a scalar ``translate_hsn``."""
    calls = {"scalar": 0, "batch": 0}

    def counted(controller, name, key):
        inner = getattr(controller.translation, name)

        def wrapper(*args):
            calls[key] += 1
            return inner(*args)
        setattr(controller.translation, name, wrapper)

    hpas, writes = random_trace(small_config(), 256, 6, num_aus=NUM_AUS)
    for period in (1, 7, 8, 64):
        plan = FaultPlan(specs=(SmcCorruptionFault(
            start=period - 1, period=period),), name=f"p{period}")
        scalar, batch = build_armed_pair(plan)
        counted(batch, "translate_hsn", "scalar")
        counted(batch, "translate_hsn_batch", "batch")
        calls.update(scalar=0, batch=0)
        scalar_results = run_scalar(scalar, hpas, writes)
        batch_result = batch.access_batch(0, hpas, writes)
        assert_results_match(scalar_results, batch_result)
        assert_armed_match(scalar, batch)
        assert calls == {"scalar": 0, "batch": 1}
        assert fires(batch, HookPoint.SMC_LOOKUP) == 256 // period
