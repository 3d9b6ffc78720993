"""Fault-plan schedule arithmetic and validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults.hooks import HookPoint
from repro.faults.plan import (CxlLinkFault, EccFault, FaultPlan, FaultSpec,
                               MigrationAbortFault, PowerExitFault,
                               SmcCorruptionFault, hook_point_of)


class TestFaultSpecSchedule:
    def test_default_fires_every_visit(self):
        spec = FaultSpec()
        assert all(spec.matches(v) for v in range(10))

    def test_start_and_period(self):
        spec = FaultSpec(start=3, period=4)
        fires = [v for v in range(20) if spec.matches(v)]
        assert fires == [3, 7, 11, 15, 19]

    def test_stop_is_exclusive(self):
        spec = FaultSpec(start=0, period=2, stop=6)
        fires = [v for v in range(12) if spec.matches(v)]
        assert fires == [0, 2, 4]

    def test_max_fires_caps(self):
        spec = FaultSpec(period=1, max_fires=3)
        assert spec.matches(5, fired=2)
        assert not spec.matches(5, fired=3)

    @pytest.mark.parametrize("kwargs", [
        {"start": -1}, {"period": 0}, {"stop": 2, "start": 5},
        {"max_fires": -1},
    ])
    def test_invalid_schedule_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)


@st.composite
def schedules(draw):
    start = draw(st.integers(0, 40))
    stop = draw(st.one_of(st.just(0), st.integers(start + 1, start + 80)))
    return FaultSpec(start=start, period=draw(st.integers(1, 23)),
                     stop=stop, max_fires=draw(st.integers(0, 6)))


class TestBatchSchedule:
    """``fire_offsets`` is ``matches`` in closed form."""

    @given(spec=schedules(), visit=st.integers(0, 120),
           fired=st.integers(0, 8), n=st.integers(0, 90))
    def test_fire_offsets_equal_the_scalar_loop(self, spec, visit, fired, n):
        expected = []
        so_far = fired
        for k in range(n):
            if spec.matches(visit + k, so_far):
                expected.append(k)
                so_far += 1
        assert list(spec.fire_offsets(visit, fired, n)) == expected

    @given(spec=schedules(), cuts=st.lists(st.integers(0, 30), max_size=6))
    def test_any_split_of_the_visits_fires_the_same_events(self, spec, cuts):
        # Counters carried call to call (as the injector does) make the
        # schedule independent of how a trace is cut into batches.
        whole = list(spec.fire_offsets(0, 0, sum(cuts)))
        visit = fired = 0
        pieces = []
        for n in cuts:
            offsets = spec.fire_offsets(visit, fired, n)
            pieces.extend(visit + k for k in offsets)
            visit += n
            fired += len(offsets)
        assert pieces == whole

    def test_ecc_eligible_offsets_mirror_applies_to(self):
        channels = np.array([0, 1, 1, 0, 1, 1])
        ranks = np.array([2, 2, 3, 3, 2, 0])
        for spec in (EccFault(), EccFault(channel=1), EccFault(rank=2),
                     EccFault(channel=1, rank=2)):
            expected = [i for i, (c, r) in enumerate(zip(channels, ranks))
                        if spec.applies_to(int(c), int(r))]
            offsets = spec.eligible_offsets(channels, ranks)
            if offsets is None:  # unfiltered: every access, no array work
                assert expected == list(range(len(channels)))
            else:
                assert offsets.tolist() == expected


class TestSpecValidation:
    def test_cxl_kind_checked(self):
        with pytest.raises(ConfigurationError):
            CxlLinkFault(kind="flap")
        with pytest.raises(ConfigurationError):
            CxlLinkFault(retries=0)

    def test_ecc_bits_checked(self):
        with pytest.raises(ConfigurationError):
            EccFault(bits=0)

    def test_power_exit_checked(self):
        with pytest.raises(ConfigurationError):
            PowerExitFault(target="dimm")
        with pytest.raises(ConfigurationError):
            PowerExitFault(kind="explode")
        with pytest.raises(ConfigurationError):
            PowerExitFault(failures=0)

    def test_ecc_rank_filter(self):
        spec = EccFault(channel=1, rank=2)
        assert spec.applies_to(1, 2)
        assert not spec.applies_to(0, 2)
        assert not spec.applies_to(1, 3)
        assert EccFault().applies_to(7, 7)

    def test_abort_progress_filter(self):
        spec = MigrationAbortFault(at_lines_done=5, channel=0)
        assert spec.applies_to(5, 0)
        assert not spec.applies_to(4, 0)
        assert not spec.applies_to(5, 1)

    def test_abort_is_fire_capped_by_default(self):
        # An unbounded every-visit abort would starve drain() forever.
        assert MigrationAbortFault().max_fires > 0

    def test_power_exit_penalty(self):
        assert PowerExitFault(kind="delay",
                              delay_ns=100.0).extra_penalty_ns == 100.0
        assert PowerExitFault(kind="fail", delay_ns=100.0,
                              failures=3).extra_penalty_ns == 300.0


class TestHookDispatch:
    def test_every_spec_type_maps(self):
        assert hook_point_of(CxlLinkFault()) is HookPoint.CXL_ACCESS
        assert hook_point_of(EccFault()) is HookPoint.DRAM_ACCESS
        assert hook_point_of(MigrationAbortFault()) \
            is HookPoint.MIGRATION_COPY
        assert hook_point_of(SmcCorruptionFault()) is HookPoint.SMC_LOOKUP
        assert hook_point_of(PowerExitFault(target="mpsm")) \
            is HookPoint.MPSM_EXIT
        assert hook_point_of(PowerExitFault(target="sr")) \
            is HookPoint.SR_EXIT

    def test_by_hook_groups_with_plan_indices(self):
        plan = FaultPlan(specs=(CxlLinkFault(), EccFault(),
                                CxlLinkFault(kind="stall")))
        grouped = plan.by_hook()
        assert [i for i, _ in grouped[HookPoint.CXL_ACCESS]] == [0, 2]
        assert [i for i, _ in grouped[HookPoint.DRAM_ACCESS]] == [1]
        assert grouped[HookPoint.SR_EXIT] == ()


class TestFaultPlan:
    def test_active(self):
        assert not FaultPlan().active
        assert FaultPlan(specs=(EccFault(),)).active

    def test_plan_is_hashable(self):
        plan = FaultPlan(seed=7, specs=(CxlLinkFault(), EccFault()))
        assert hash(plan) == hash(FaultPlan(seed=7, specs=(CxlLinkFault(),
                                                           EccFault())))

    def test_escalated_halves_periods(self):
        plan = FaultPlan(name="p", specs=(EccFault(period=8),
                                          CxlLinkFault(period=3)))
        harsher = plan.escalated(2)
        assert [spec.period for spec in harsher.specs] == [2, 1]
        assert harsher.name == "p@L2"

    def test_escalated_level_zero_is_identity(self):
        plan = FaultPlan(specs=(EccFault(period=8),))
        assert plan.escalated(0) is plan

    def test_escalated_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().escalated(-1)
