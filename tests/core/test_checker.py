"""Tests for the cross-structure invariant checker."""

import pytest

from repro.core.allocator import RankRole
from repro.core.checker import (AuditReport, ConsistencyChecker,
                                ConsistencyError, check)
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.units import GIB, MIB


@pytest.fixture
def controller():
    return DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=256 * MIB), au_bytes=64 * MIB))


class TestCleanStates:
    def test_fresh_controller(self, controller):
        report = check(controller)
        assert report.ok
        assert report.checked_mappings == 0

    def test_after_allocation(self, controller):
        controller.allocate_vm(0, 256 * MIB)
        report = check(controller)
        assert report.ok
        assert report.checked_mappings == 128

    def test_after_full_lifecycle(self, controller):
        vm_a = controller.allocate_vm(0, 512 * MIB, now_s=0.0)
        vm_b = controller.allocate_vm(1, 256 * MIB, now_s=1.0)
        controller.deallocate_vm(vm_a, now_s=2.0)
        controller.allocate_vm(0, 128 * MIB, now_s=3.0)
        assert check(controller).ok

    def test_after_accesses(self, controller):
        vm = controller.allocate_vm(0, 128 * MIB)
        for offset in range(16):
            controller.access(0, controller.hpa_of(vm.au_ids[0], offset))
        report = check(controller)
        assert report.ok
        assert report.checked_smc_entries > 0

    def test_after_retirement_with_tolerance(self, controller):
        vm = controller.allocate_vm(0, 512 * MIB)
        controller.retire_rank(0, 7, now_s=1.0)
        # Retirement may not disturb balance when the rank was empty.
        assert check(controller).ok


class TestDetectsCorruption:
    def test_stale_smc_entry(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        hpa = controller.hpa_of(vm.au_ids[0], 0)
        result = controller.access(0, hpa)
        hsn = controller.tables.hsn_of_dsn(result.dsn)
        # Corrupt: remap behind the SMC's back (no invalidation).
        free_dsn = controller.allocator.free_dsns_in_rank(
            (result.channel, result.rank))[0]
        controller.allocator.reserve_specific(free_dsn)
        controller.tables.remap_segment(hsn, free_dsn)
        controller.allocator.free([result.dsn])
        with pytest.raises(ConsistencyError, match="SMC"):
            check(controller)

    def test_mapping_without_allocation(self, controller):
        controller.tables.allocate_au(0, [0])
        controller.tables.map_segment(
            controller.host_layout.pack_hsn(0, 0, 0), 17)
        with pytest.raises(ConsistencyError, match="not allocated"):
            check(controller)

    def test_allocation_without_mapping(self, controller):
        controller.allocator.allocate_in_rank((0, 0), 1)
        with pytest.raises(ConsistencyError, match="not mapped"):
            check(controller)

    def test_mpsm_rank_with_data(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        # Forcibly park a data-holding rank in MPSM.
        rank_id = next(rank_id
                       for rank_id in controller.device.ranks
                       if controller.allocator.usage(rank_id).allocated)
        controller.device.set_rank_state(rank_id, PowerState.MPSM, 1.0)
        with pytest.raises(ConsistencyError, match="MPSM"):
            check(controller)
        assert ConsistencyChecker(controller).audit().violations == [
            f"rank {rank_id} is in MPSM but holds 8 live segments"]

    def test_unbalanced_channels(self, controller):
        controller.allocator.allocate_in_rank((0, 0), 4)
        # Map them so allocation agreement holds.
        controller.tables.allocate_au(0, [0])
        for offset, dsn in enumerate(
                controller.allocator.allocated_in_rank((0, 0))):
            controller.tables.map_segment(
                controller.host_layout.pack_hsn(0, 0, offset), dsn)
        with pytest.raises(ConsistencyError, match="unbalanced"):
            check(controller)
        # ... but passes with enough tolerance.
        report = ConsistencyChecker(controller).audit(balance_tolerance=4)
        assert report.ok


class TestRankRoles:
    """Each role-agreement rule, broken by hand, is one violation."""

    def violations(self, controller) -> list[str]:
        return ConsistencyChecker(controller).audit(
            balance_tolerance=64).violations

    def test_copy_targets_a_closed_rank(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        source = int(controller.tables.walk(controller.host_layout.pack_hsn(
            0, vm.au_ids[0], 0)).dsn)
        channel = controller.device_layout.channel_of_dsn(source)
        target = controller.allocator.allocate_in_rank((channel, 5), 1)[0]
        controller.migration.submit(controller.tables.hsn_of_dsn(source),
                                    source, int(target))
        assert self.violations(controller) == []
        controller.allocator.set_role([(channel, 5)], RankRole.FENCED)
        assert self.violations(controller) == [
            f"rank ({channel}, 5) is fenced but a copy in flight targets it"]

    def test_fenced_rank_out_of_standby(self, controller):
        controller.allocator.set_role([(1, 6)], RankRole.FENCED)
        assert self.violations(controller) == []
        controller.device.set_rank_state((1, 6), PowerState.SELF_REFRESH,
                                         1.0)
        assert self.violations(controller) == [
            "rank (1, 6) is fenced but in SELF_REFRESH"]

    def test_retired_rank_out_of_mpsm(self, controller):
        controller.allocator.set_role([(2, 7)], RankRole.RETIRED)
        assert self.violations(controller) == [
            "rank (2, 7) is retired but in STANDBY"]

    def test_parked_rank_in_standby(self, controller):
        controller.allocator.set_role([(3, 4)], RankRole.PARKED)
        assert self.violations(controller) == [
            "rank (3, 4) is parked but in STANDBY"]


class TestReport:
    def test_report_collects_multiple_violations(self, controller):
        controller.allocator.allocate_in_rank((0, 0), 1)
        controller.allocator.allocate_in_rank((1, 1), 1)
        report = ConsistencyChecker(controller).audit(balance_tolerance=64)
        assert len(report.violations) == 2
        assert not report.ok
