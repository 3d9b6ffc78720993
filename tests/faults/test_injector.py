"""Injector hook behaviour, datapath wiring, and lazy telemetry."""

import pytest

from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.cxl.link import CxlLinkConfig
from repro.dram.geometry import DramGeometry
from repro.faults.hooks import HookPoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import (CxlLinkFault, EccFault, FaultPlan,
                               MigrationAbortFault, PowerExitFault,
                               SmcCorruptionFault)
from repro.telemetry import EventKind, EventTrace, MetricsRegistry
from repro.units import MIB
from tests.core.pump_reference import on_migration_copy


def make_controller() -> DtlController:
    return DtlController(DtlConfig(
        geometry=DramGeometry(channels=2, ranks_per_channel=2,
                              rank_bytes=4 * MIB, segment_bytes=128 * 1024),
        au_bytes=1 * MIB))


def make_injector(*specs, controller=None) -> FaultInjector:
    plan = FaultPlan(specs=tuple(specs))
    if controller is None:
        return FaultInjector(plan)
    return FaultInjector(plan, registry=controller.metrics,
                         trace=controller.trace)


class TestCxlHook:
    def test_error_charges_replay_latency(self):
        link = CxlLinkConfig()
        injector = FaultInjector(
            FaultPlan(specs=(CxlLinkFault(retries=2, backoff_ns=40.0),)),
            link=link)
        extra = injector.on_cxl_access()
        assert extra == pytest.approx(link.replay_latency_ns(2, 40.0))
        assert injector.cxl_retry_counts == {2: 1}
        assert injector.recovered == 1

    def test_stall_charges_fixed_latency(self):
        injector = make_injector(CxlLinkFault(kind="stall", stall_ns=400.0))
        assert injector.on_cxl_access() == pytest.approx(400.0)
        assert injector.cxl_retry_counts == {}

    def test_period_schedules_fires(self):
        injector = make_injector(CxlLinkFault(start=1, period=3))
        fired = [injector.on_cxl_access() > 0 for _ in range(7)]
        assert fired == [False, True, False, False, True, False, False]
        assert injector.visits(HookPoint.CXL_ACCESS) == 7
        assert injector.injected(HookPoint.CXL_ACCESS) == 2

    def test_armed_controller_inflates_latency(self):
        controller = make_controller()
        vm = controller.allocate_vm(0, 1 * MIB)
        hpa = controller.hpa_of(vm.au_ids[0], 0)
        controller.access(0, hpa)  # warm the SMC so latencies are steady
        baseline = controller.access(0, hpa).latency_ns
        injector = make_injector(CxlLinkFault(kind="stall", stall_ns=500.0),
                                 controller=controller)
        controller.arm_faults(injector)
        assert controller.access(0, hpa).latency_ns \
            == pytest.approx(baseline + 500.0)
        controller.disarm_faults()
        assert controller.access(0, hpa).latency_ns == pytest.approx(baseline)


class TestSmcHook:
    def test_corruption_invalidates_cached_entry(self):
        controller = make_controller()
        vm = controller.allocate_vm(0, 1 * MIB)
        hpa = controller.hpa_of(vm.au_ids[0], 0)
        controller.access(0, hpa)
        assert controller.access(0, hpa).smc_l1_hit  # warmed
        # Fire the corruption on the next lookup: the entry is dropped,
        # so the access *after* it misses and re-walks the tables.
        controller.arm_faults(make_injector(SmcCorruptionFault(max_fires=1),
                                            controller=controller))
        controller.access(0, hpa)
        result = controller.access(0, hpa)
        assert not result.smc_l1_hit
        assert result.dsn == controller.tables.try_walk(
            controller.host_layout.pack_hsn(0, vm.au_ids[0], 0))


class TestDramHook:
    def test_ecc_errors_accounted_per_rank(self):
        controller = make_controller()
        vm = controller.allocate_vm(0, 2 * MIB)
        injector = make_injector(EccFault(bits=1, period=2),
                                 EccFault(bits=2, start=1, period=100),
                                 controller=controller)
        controller.arm_faults(injector)
        for offset in range(8):
            controller.access(0, controller.hpa_of(vm.au_ids[0], offset))
        assert injector.ecc_corrected == 4
        assert injector.ecc_uncorrected == 1
        counters = controller.metrics.counter_values()
        assert counters["dram.ecc.errors"] == 5
        assert counters["dram.ecc.corrected"] == 4
        assert counters["dram.ecc.uncorrected"] == 1

    def test_rank_filter_restricts_injection(self):
        injector = make_injector(EccFault(channel=0, rank=1))

        class _Device:
            calls = []

            def record_ecc_error(self, rank_id, bits=1, now_ns=0):
                self.calls.append(rank_id)
                return True

        device = _Device()
        injector.on_dram_access(0, 0, device)
        injector.on_dram_access(1, 1, device)
        injector.on_dram_access(0, 1, device)
        assert device.calls == [(0, 1)]


class TestMigrationHook:
    def test_abort_fires_at_chosen_progress(self):
        controller = make_controller()
        vm = controller.allocate_vm(0, 1 * MIB)
        hsn = controller.host_layout.pack_hsn(0, vm.au_ids[0], 0)
        old_dsn = controller.tables.try_walk(hsn)
        channel = controller.migration.channel_of(old_dsn)
        rank = controller.allocator.rank_of_dsn(old_dsn)
        new_dsn = controller.allocator.allocate_in_rank(rank, 1)[0]
        injector = make_injector(
            MigrationAbortFault(at_lines_done=3, max_fires=1),
            controller=controller)
        controller.arm_faults(injector)
        request = controller.migration.submit(hsn, old_dsn, new_dsn)
        controller.migration.step_channel(channel, lines=1)  # 0 -> 1
        controller.migration.step_channel(channel, lines=2)  # 1 -> 3
        assert request.lines_done == 3
        controller.migration.step_channel(channel, lines=1)  # abort fires
        assert request.lines_done == 0
        assert request.retries == 1
        assert injector.injected(HookPoint.MIGRATION_COPY) == 1
        # Drained to completion despite the abort (fire cap reached).
        controller.migration.drain()
        assert controller.tables.try_walk(hsn) == new_dsn

    def test_completion_bit_refuses_abort(self):
        injector = make_injector(MigrationAbortFault())

        class _Done:
            completion = True
            lines_done = 8

        with pytest.raises(AssertionError, match="completion bit"):
            on_migration_copy(injector, _Done(), channel=0)
        assert injector.injected(HookPoint.MIGRATION_COPY) == 0


class TestPowerExitHook:
    def test_delay_and_fail_targets(self):
        injector = make_injector(
            PowerExitFault(target="mpsm", kind="delay", delay_ns=700.0),
            PowerExitFault(target="sr", kind="fail", delay_ns=100.0,
                           failures=3))
        assert injector.on_power_exit("mpsm") == pytest.approx(700.0)
        assert injector.on_power_exit("sr") == pytest.approx(300.0)
        assert injector.power_exit_failures == 3
        assert injector.visits(HookPoint.MPSM_EXIT) == 1
        assert injector.visits(HookPoint.SR_EXIT) == 1


class TestTwoSpecsSameVisit:
    """Each FAULT_INJECTED event carries its own spec's contribution.

    Regression: the events used to be stamped with the call's *running*
    total, so the second spec's ``extra_ns`` double-reported the first.
    """

    @staticmethod
    def _extras(trace: EventTrace) -> list[float]:
        return [event.data["extra_ns"] for event in trace.events()
                if event.kind is EventKind.FAULT_INJECTED]

    def test_cxl_events_report_their_own_extra(self):
        trace = EventTrace()
        link = CxlLinkConfig()
        injector = FaultInjector(FaultPlan(specs=(
            CxlLinkFault(kind="stall", stall_ns=400.0),
            CxlLinkFault(retries=2, backoff_ns=40.0))),
            trace=trace, link=link)
        replay = link.replay_latency_ns(2, 40.0)
        assert injector.on_cxl_access() == 400.0 + replay
        assert self._extras(trace) == [400.0, replay]

    def test_cxl_batch_events_report_their_own_extra(self):
        trace = EventTrace()
        injector = FaultInjector(FaultPlan(specs=(
            CxlLinkFault(kind="stall", stall_ns=400.0),
            CxlLinkFault(kind="stall", stall_ns=70.0, period=2))),
            trace=trace)
        assert list(injector.on_cxl_access_batch(3)) == [470.0, 400.0, 470.0]
        assert self._extras(trace) == [400.0, 70.0, 400.0, 400.0, 70.0]

    def test_power_exit_events_report_their_own_extra(self):
        trace = EventTrace()
        injector = FaultInjector(FaultPlan(specs=(
            PowerExitFault(target="sr", kind="delay", delay_ns=700.0),
            PowerExitFault(target="sr", kind="fail", delay_ns=100.0,
                           failures=3))), trace=trace)
        assert injector.on_power_exit("sr", 50.0) == 1000.0
        assert self._extras(trace) == [700.0, 300.0]


class TestLazyTelemetry:
    def test_silent_injector_registers_nothing(self):
        registry = MetricsRegistry()
        injector = FaultInjector(
            FaultPlan(specs=(CxlLinkFault(start=1000),)), registry=registry)
        injector.on_cxl_access()
        assert "faults.injected" not in registry.counter_values()

    def test_first_fire_creates_metrics(self):
        registry = MetricsRegistry()
        injector = FaultInjector(FaultPlan(specs=(CxlLinkFault(),)),
                                 registry=registry)
        injector.on_cxl_access()
        counters = registry.counter_values()
        assert counters["faults.injected"] == 1
        assert counters["faults.injected.cxl.access"] == 1


class TestReport:
    def test_report_only_lists_touched_hooks(self):
        injector = make_injector(CxlLinkFault())
        injector.on_cxl_access()
        report = injector.report()
        assert report.injected == {"cxl.access": 1}
        assert report.hook_visits == {"cxl.access": 1}
        assert not report.empty
        assert report.to_dict()["injected_total"] == 1

    def test_combine_sums_levels(self):
        from repro.faults.injector import ReliabilityReport
        first = ReliabilityReport(injected={"cxl.access": 2},
                                  cxl_retry_counts={2: 2}, detected=2,
                                  recovered=2, checker_audits=3)
        second = ReliabilityReport(injected={"cxl.access": 1,
                                             "sr.exit": 1},
                                   cxl_retry_counts={2: 1}, detected=2,
                                   recovered=1, checker_audits=4,
                                   checker_violations=["boom"])
        total = ReliabilityReport.combine([first, second])
        assert total.injected == {"cxl.access": 3, "sr.exit": 1}
        assert total.cxl_retry_counts == {2: 3}
        assert total.detected == 4
        assert total.recovered == 3
        assert total.checker_audits == 7
        assert total.checker_violations == ["boom"]
