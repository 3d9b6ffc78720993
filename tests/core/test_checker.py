"""Tests for the cross-structure invariant checker."""

import pytest

from repro.core.allocator import RankRole
from repro.core.checker import (AuditReport, ConsistencyChecker,
                                ConsistencyError, check)
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.units import GIB, MIB, s_to_ns

from tests.core.checker_reference import REFERENCE_CHECKS


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
        vm_a = controller.allocate_vm(0, 512 * MIB, now_ns=0)
        vm_b = controller.allocate_vm(1, 256 * MIB, now_ns=s_to_ns(1.0))
        controller.deallocate_vm(vm_a, now_ns=s_to_ns(2.0))
        controller.allocate_vm(0, 128 * MIB, now_ns=s_to_ns(3.0))
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
        controller.retire_rank(0, 7, now_ns=s_to_ns(1.0))
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
        controller.device.set_rank_state(rank_id, PowerState.MPSM, 1)
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
                                         1)
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


class TestGatheredChecksMatchTheLoops:
    """The gathered audits list exactly what the per-entry loops
    they replaced list (``tests/core/checker_reference.py``): the same
    messages in the same order, the same counts — on a clean controller
    and with each kind of violation injected, several at a time."""

    @staticmethod
    def assert_matches_reference(controller, expect_violations):
        checker = ConsistencyChecker(controller)
        found = 0
        for name, reference in REFERENCE_CHECKS.items():
            gathered, looped = AuditReport(), AuditReport()
            getattr(checker, name)(gathered)
            reference(controller, looped)
            assert gathered == looped, name
            found += len(gathered.violations)
        assert found == expect_violations

    @staticmethod
    def busy(controller):
        """Three VMs on two hosts, every segment of the first touched
        twice: both SMC levels hold entries."""
        vms = [controller.allocate_vm(host, 256 * MIB, now_ns=s_to_ns(host))
               for host in (0, 1, 0)]
        for _ in range(2):
            for au_id in vms[0].au_ids:
                for offset in range(controller.host_layout.segments_per_au):
                    controller.access(0, controller.hpa_of(au_id, offset))
        smc = controller.translation.smc
        assert len(smc.l1) and len(smc.l2)
        return vms

    def test_clean_controller(self, controller):
        self.assert_matches_reference(controller, 0)
        self.busy(controller)
        self.assert_matches_reference(controller, 0)

    def test_stale_smc_entries(self, controller):
        self.busy(controller)
        tables, smc = controller.tables, controller.translation.smc
        cached = [hsn for hsn, _ in smc.l1.items()] + [
            hsn for hsn, _ in smc.l2.items()]
        # Three entries remapped behind the SMC's back, one unmapped.
        for hsn in cached[:3]:
            dsn = tables.walk(hsn).dsn
            rank_id = controller.allocator.rank_of_dsn(dsn)
            free_dsn = int(controller.allocator.free_dsns_in_rank(
                rank_id)[0])
            controller.allocator.reserve_specific(free_dsn)
            tables.remap_segment(hsn, free_dsn)
            controller.allocator.free([dsn])
        tables.unmap_segment(cached[-1])
        # L1 is inside L2 here, so each stale HSN is two stale entries;
        # the unmapped one also leaves its DSN allocated but unmapped.
        assert set(cached[:3] + cached[-1:]) <= {hsn for hsn, _
                                                 in smc.l1.items()}
        self.assert_matches_reference(controller, 2 * 4 + 1)

    def test_broken_reverse_entries(self, controller):
        self.busy(controller)
        tables = controller.tables
        live = tables.live_dsns()
        # Three reverse entries point at another live DSN's HSN.
        for dsn, other in zip(live[:3], live[-3:]):
            tables._reverse_table[dsn] = tables.hsn_of_dsn(other)
        self.assert_matches_reference(controller, 3)

    def test_allocation_disagreements(self, controller):
        self.busy(controller)
        allocator = controller.allocator
        # Allocated but unmapped on a dozen ranks (DSNs far apart, so a
        # set of them does not iterate in ascending order), mapped but
        # not allocated twice.
        for channel in range(4):
            for rank in (3, 5, 6):
                allocator.allocate_in_rank((channel, rank), 2)
        allocator.free(controller.tables.live_dsns()[5:7])
        self.assert_matches_reference(controller, 24 + 2)

    def test_copy_targets_are_exempt(self, controller):
        self.busy(controller)
        tables, allocator = controller.tables, controller.allocator
        dsn = tables.live_dsns()[0]
        rank_id = allocator.rank_of_dsn(dsn)
        target = int(allocator.free_dsns_in_rank(rank_id)[0])
        allocator.reserve_specific(target)
        controller.migration.submit(tables.hsn_of_dsn(dsn), dsn, target)
        allocator.allocate_in_rank(rank_id, 1)
        self.assert_matches_reference(controller, 1)

    def test_conservation_breaks(self, controller):
        self.busy(controller)
        allocator = controller.allocator
        # Free counts off by one on three ranks of two channels, and one
        # DSN flagged allocated behind the free queue's back.
        for row in (1, 6, 9):
            allocator._free[row] -= 1
        allocator._in_use[int(allocator.free_dsns_in_rank((3, 2))[0])] = True
        report = AuditReport()
        ConsistencyChecker(controller).check_segment_conservation(report)
        assert len(report.violations) == 4
        # The flagged DSN is also allocated but not mapped.
        self.assert_matches_reference(controller, 4 + 1)

    def test_broken_copies(self, controller):
        self.busy(controller)
        tables, allocator = controller.tables, controller.allocator
        migration = controller.migration
        live = tables.live_dsns()
        requests = []
        for dsn in live[:8]:
            rank_id = allocator.rank_of_dsn(dsn)
            target = int(allocator.free_dsns_in_rank(rank_id)[0])
            allocator.reserve_specific(target)
            requests.append(migration.submit(tables.hsn_of_dsn(dsn), dsn,
                                             target))
        self.assert_matches_reference(controller, 0)
        # Progress past the segment, the completion bit mid-copy, a
        # negative counter, a released destination, a source remapped
        # onto its destination (two breaks), a source remapped
        # elsewhere, a destination on another channel, and progress out
        # of range with the bit set (two breaks).
        total = migration.lines_per_segment
        requests[0].lines_done = total + 1
        requests[1].lines_done, requests[1].completion = 3, 1
        requests[2].lines_done = -2
        allocator.free([requests[3].new_dsn])
        tables.remap_segment(requests[4].hsn, requests[4].new_dsn)
        hsn = requests[5].hsn
        moved = int(allocator.free_dsns_in_rank(
            allocator.rank_of_dsn(requests[5].old_dsn))[0])
        allocator.reserve_specific(moved)
        tables.remap_segment(hsn, moved)
        requests[6].new_dsn = requests[6].new_dsn ^ 1
        requests[7].lines_done, requests[7].completion = total + 4, 1
        report = AuditReport()
        ConsistencyChecker(controller).check_migration_tracking(report)
        assert len(report.violations) == 10
        self.assert_matches_reference(controller, len(self.violations_of(
            controller)))

    @staticmethod
    def violations_of(controller) -> list[str]:
        report = AuditReport()
        checker = ConsistencyChecker(controller)
        for name in REFERENCE_CHECKS:
            getattr(checker, name)(report)
        return report.violations
