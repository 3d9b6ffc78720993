"""Tests for the telemetry subsystem and its integration with the DTL.

Covers the registry primitives (counters, gauges, histograms), the event
trace ring buffer, snapshot export, and — most importantly — that the
registry-backed counters always agree with the legacy stats views the
subsystems still expose.
"""

import json
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import restore, snapshot
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigurationError
from repro.telemetry import (DEFAULT_TRACE_CAPACITY, EventKind, EventTrace,
                             Histogram, MetricsRegistry, Snapshot)
from repro.units import GIB, MIB, s_to_ns


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(3)
        assert registry.counter("a.b") is counter
        assert registry.counter_values() == {"a.b": 4}

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2.5)
        registry.gauge("g").set(1.0)
        assert registry.gauge_values() == {"g": 1.0}

    def test_cross_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x")

    def test_values_are_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        assert list(registry.counter_values()) == ["a", "z"]


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        data = hist.to_dict()
        assert data["count"] == 4
        assert data["buckets"] == {"le_1": 2, "le_10": 1, "overflow": 1}
        assert data["mean"] == pytest.approx(26.625)

    def test_bounds_must_ascend(self):
        with pytest.raises(ConfigurationError):
            Histogram("bad", bounds=(10.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("empty", bounds=())

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean == 0.0


class TestEventTrace:
    def test_record_and_filter(self):
        trace = EventTrace()
        trace.record(EventKind.ACCESS, hsn=1)
        trace.record(EventKind.SMC_FILL, hsn=1, dsn=10)
        trace.record(EventKind.ACCESS, hsn=2)
        assert len(trace) == 3
        assert len(trace.events(EventKind.ACCESS)) == 2
        assert trace.events(EventKind.SMC_FILL)[0].data["dsn"] == 10

    def test_ring_buffer_drops_oldest(self):
        trace = EventTrace(capacity=4)
        for index in range(10):
            trace.record(EventKind.ACCESS, hsn=index)
        assert len(trace) == 4
        assert trace.recorded == 10
        assert trace.dropped == 6
        assert [event.data["hsn"] for event in trace] == [6, 7, 8, 9]

    def test_counts_survive_drops_and_clear(self):
        trace = EventTrace(capacity=2)
        for _ in range(5):
            trace.record(EventKind.MIGRATION_ABORT)
        trace.clear()
        assert trace.counts_by_kind() == {"migration_abort": 5}
        assert len(trace) == 0

    def test_default_capacity(self):
        assert EventTrace().capacity == DEFAULT_TRACE_CAPACITY


def record_columns(trace: EventTrace, reference: EventTrace, rows: int,
                   base: int) -> None:
    """One columnar ``record_tail`` on ``trace``; the same rows as a
    loop of ``record()`` on ``reference``."""
    hsn = np.arange(base, base + rows, dtype=np.int64)
    write = hsn % 3 == 0
    latency_ns = hsn * 0.5
    trace.record_tail(EventKind.ACCESS, time=float(base), hsn=hsn,
                      write=write, latency_ns=latency_ns)
    for i in range(rows):
        reference.record(EventKind.ACCESS, time=float(base), hsn=base + i,
                         write=(base + i) % 3 == 0,
                         latency_ns=(base + i) * 0.5)
    # The ring owns copies: the caller's arrays are free to change.
    hsn[:] = -1
    write[:] = True
    latency_ns[:] = -1.0


def assert_rings_equal(trace: EventTrace, reference: EventTrace) -> None:
    assert trace.to_list() == reference.to_list()
    json.dumps(trace.to_list())  # plain Python scalars only
    for kind in (EventKind.ACCESS, EventKind.SMC_FILL):
        assert ([event.to_dict() for event in trace.events(kind)]
                == [event.to_dict() for event in reference.events(kind)])
    assert ([event.to_dict() for event in trace]
            == [event.to_dict() for event in reference])
    # np.float64 would pass both checks above; demand the exact types.
    assert ([[type(value) for value in event.data.values()]
             for event in trace]
            == [[type(value) for value in event.data.values()]
                for event in reference])
    assert len(trace) == len(reference)
    assert trace.dropped == reference.dropped
    assert trace.recorded == reference.recorded
    assert trace.counts_by_kind() == reference.counts_by_kind()


#: Blocks shorter than, equal to and longer than every capacity below.
ring_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), st.sampled_from(
        [EventKind.ACCESS, EventKind.SMC_FILL])),
    st.tuples(st.just("tail"), st.sampled_from([0, 1, 3, 8, 9, 20])),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("checkpoint"), st.none())), max_size=30)


class TestColumnarRing:
    """``record_tail`` reads back exactly as a loop of ``record()``."""

    @pytest.mark.parametrize("capacity", [0, 1, 8])
    @settings(max_examples=60, deadline=None)
    @given(ops=ring_ops)
    def test_interleavings_match_a_record_only_ring(self, capacity, ops):
        trace, reference = EventTrace(capacity), EventTrace(capacity)
        for step, (op, arg) in enumerate(ops):
            if op == "record":
                for ring in (trace, reference):
                    ring.record(arg, time=float(step), hsn=step)
            elif op == "tail":
                record_columns(trace, reference, rows=arg, base=100 * step)
            elif op == "clear":
                trace.clear()
                reference.clear()
            else:
                trace = restore(snapshot("ring", step, trace))
            assert_rings_equal(trace, reference)

    def test_half_full_ring_survives_a_checkpoint(self):
        trace, reference = EventTrace(capacity=8), EventTrace(capacity=8)
        for ring in (trace, reference):
            ring.record(EventKind.SMC_FILL, hsn=1, dsn=2)
        record_columns(trace, reference, rows=3, base=10)
        assert len(trace) == 4
        trace = restore(snapshot("ring", 0, trace))
        assert_rings_equal(trace, reference)
        # ... and keeps recording where it left off.
        record_columns(trace, reference, rows=6, base=20)
        for ring in (trace, reference):
            ring.record(EventKind.SMC_FILL, hsn=3, dsn=4)
        assert trace.dropped == 3
        assert_rings_equal(trace, reference)

    def test_retained_state_is_bounded_by_capacity(self):
        """Neither a long batch behind a short tail nor an endless run
        of small blocks and singles stays reachable from the ring."""
        trace = EventTrace(capacity=16)
        column = np.arange(200_000, dtype=np.int64)
        alive = weakref.ref(column)
        trace.record_tail(EventKind.ACCESS, hsn=column)
        del column
        assert alive() is None
        assert trace.to_list()[0]["hsn"] == 200_000 - 16
        sizes = []
        for step in range(2_000):
            trace.record(EventKind.SMC_FILL, hsn=step)
            trace.record_tail(EventKind.ACCESS, hsn=np.arange(step % 5))
            sizes.append(len(pickle.dumps(trace)))
        assert max(sizes[1_000:]) <= max(sizes[:1_000])
        assert len(trace) == 16 and trace.dropped == 206_000 - 16


class TestSnapshot:
    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(3.0)
        snapshot = registry.snapshot(events={"access": 7},
                                     detail={"extra": [1, 2]})
        data = json.loads(snapshot.to_json())
        assert data["counters"] == {"c": 2}
        assert data["gauges"] == {"g": 0.5}
        assert data["histograms"]["h"]["count"] == 1
        assert data["events"] == {"access": 7}
        assert data["detail"] == {"extra": [1, 2]}

    def test_empty_snapshot(self):
        snapshot = Snapshot()
        assert snapshot.to_dict() == {"counters": {}, "gauges": {},
                                      "histograms": {}, "events": {},
                                      "detail": {}}


@pytest.fixture
def controller():
    return DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=256 * MIB), au_bytes=64 * MIB))


def exercise(controller):
    """Allocate, touch memory, deallocate: generates telemetry."""
    vm_a = controller.allocate_vm(0, 1 * GIB, now_ns=0)
    vm_b = controller.allocate_vm(1, 256 * MIB, now_ns=s_to_ns(1.0))
    for au_id in vm_a.au_ids[:4]:
        for offset in range(8):
            controller.access(0, controller.hpa_of(au_id, offset),
                              is_write=(offset % 2 == 0))
    for offset in range(8):
        controller.access(1, controller.hpa_of(vm_b.au_ids[0], offset))
    controller.deallocate_vm(vm_a, now_ns=s_to_ns(50.0))
    controller.end_window()
    return vm_b


class TestControllerIntegration:
    """The registry is the single source of truth: every legacy stats
    view must agree with the counters it is backed by."""

    def test_smc_counters_agree_with_stats_views(self, controller):
        exercise(controller)
        counters = controller.metrics.counter_values()
        smc = controller.translation.smc
        assert counters["smc.l1.hits"] == smc.l1.stats.hits
        assert counters["smc.l1.misses"] == smc.l1.stats.misses
        assert counters["smc.l2.hits"] == smc.l2.stats.hits
        assert counters["smc.l2.misses"] == smc.l2.stats.misses
        assert counters["smc.l1.invalidations"] == smc.l1.stats.invalidations
        assert smc.l1.stats.hits + smc.l1.stats.misses > 0

    def test_migration_counters_agree_with_stats_view(self, controller):
        exercise(controller)
        counters = controller.metrics.counter_values()
        stats = controller.migration.stats
        assert counters["migration.segments_migrated"] == \
            stats.segments_migrated
        assert counters["migration.lines_copied"] == stats.lines_copied
        assert counters["migration.aborts"] == stats.aborts
        assert counters["migration.requeues"] == stats.requeues

    def test_translation_counters_agree_with_views(self, controller):
        exercise(controller)
        counters = controller.metrics.counter_values()
        assert counters["translation.count"] == \
            controller.translation.translation_count
        assert counters["translation.latency_total_ns"] == pytest.approx(
            controller.translation.total_latency_ns)
        assert counters["dtl.accesses"] == controller.access_count

    def test_access_histogram_counts_every_access(self, controller):
        exercise(controller)
        hist = controller.metrics.histogram_values()["dtl.access_latency_ns"]
        assert hist["count"] == controller.access_count

    def test_trace_records_datapath_events(self, controller):
        exercise(controller)
        events = controller.trace.counts_by_kind()
        assert events["access"] == controller.access_count
        assert events["smc_fill"] > 0
        assert events["window_close"] == 1
        assert "power_transition" in events  # deallocation -> MPSM

    def test_snapshot_contains_required_sections(self, controller):
        exercise(controller)
        snapshot = controller.telemetry_snapshot(now_ns=s_to_ns(100.0))
        data = snapshot.to_dict()
        # SMC hit ratios.
        assert 0.0 <= data["gauges"]["smc.l1.hit_ratio"] <= 1.0
        assert 0.0 <= data["gauges"]["smc.l2.hit_ratio"] <= 1.0
        # Migration counters.
        assert "migration.segments_migrated" in data["counters"]
        # Per-rank power-state residency, plus aggregates.
        residency = data["detail"]["rank_residency_s"]
        geometry = controller.geometry
        assert len(residency) == geometry.channels \
            * geometry.ranks_per_channel
        assert "ch0r0" in residency
        assert data["gauges"]["dram.rank.ch0r0.residency_s.standby"] >= 0.0
        total = sum(sum(states.values()) for states in residency.values())
        assert total == pytest.approx(100.0 * len(residency))

    def test_snapshot_is_json_serialisable(self, controller):
        exercise(controller)
        text = controller.telemetry_snapshot(
            now_ns=s_to_ns(100.0)).to_json(indent=2)
        assert json.loads(text)["counters"]["dtl.accesses"] \
            == controller.access_count

    def test_power_transitions_counted(self, controller):
        exercise(controller)
        counters = controller.metrics.counter_values()
        assert counters.get("dram.power_transitions", 0) > 0
        per_state = sum(value for name, value in counters.items()
                        if name.startswith("dram.power_transitions.to_"))
        assert per_state == counters["dram.power_transitions"]


class TestSimulationSurface:
    def test_powerdown_result_carries_telemetry(self):
        from repro.host.scheduler import SchedulerConfig
        from repro.sim.powerdown_sim import (PowerDownSimConfig,
                                             PowerDownSimulator)
        from repro.sim.results import flatten_telemetry
        from repro.workloads.azure import AzureTraceConfig

        duration = 1800.0
        config = PowerDownSimConfig(
            azure=AzureTraceConfig(num_vms=20, duration_s=duration),
            scheduler=SchedulerConfig(duration_s=duration))
        result = PowerDownSimulator(config).run()
        assert result.telemetry["counters"]
        assert len(result.window_snapshots) == len(result.intervals)
        assert result.window_snapshots[-1]["time_s"] == duration
        # Per-window counters are monotonic prefixes of the final state.
        final = result.telemetry["counters"]
        for snapshot in result.window_snapshots:
            for name, value in snapshot["counters"].items():
                assert value <= final.get(name, 0) or value == 0
        flat = flatten_telemetry(result.telemetry)
        assert flat["migration.segments_migrated"] \
            == final["migration.segments_migrated"]
        assert "event.window_close" in flat

    def test_fleet_telemetry_totals_sum_nodes(self):
        """A 2-node fleet's totals equal the sum of two 1-node fleets."""
        from repro.exec import ExecConfig
        from repro.host.scheduler import SchedulerConfig
        from repro.sim.fleet import FleetConfig, FleetSimulator
        from repro.sim.powerdown_sim import PowerDownSimConfig
        from repro.workloads.azure import AzureTraceConfig

        node = PowerDownSimConfig(
            azure=AzureTraceConfig(num_vms=15, duration_s=1800.0),
            scheduler=SchedulerConfig(duration_s=1800.0))
        serial = ExecConfig(workers=1)

        def totals(num_nodes, base_seed):
            config = FleetConfig(num_nodes=num_nodes, node=node,
                                 base_seed=base_seed)
            return FleetSimulator(config, serial).run().telemetry_totals()

        both = totals(2, base_seed=0)
        assert both
        assert both["fleet.nodes_reporting"] == 2.0
        first = totals(1, base_seed=0)
        second = totals(1, base_seed=1)
        key = "migration.segments_migrated"
        assert both[key] == first[key] + second[key]
