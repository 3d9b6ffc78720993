"""Tests for background (idle-bandwidth) consolidation migration."""

import pytest

from repro.core.checker import check
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.units import MIB, s_to_ns


@pytest.fixture
def controller():
    return DtlController(DtlConfig(
        geometry=DramGeometry(channels=2, ranks_per_channel=4,
                              rank_bytes=64 * MIB),
        au_bytes=16 * MIB, enable_self_refresh=False,
        background_migration=True))


def force_consolidation(controller):
    """Create a layout where power-down must migrate live segments."""
    vm_a = controller.allocate_vm(0, 96 * MIB, now_ns=0)
    vm_b = controller.allocate_vm(0, 96 * MIB, now_ns=s_to_ns(1.0))
    controller.deallocate_vm(vm_a, now_ns=s_to_ns(2.0))
    return vm_b


class TestDeferredPowerDown:
    def test_mpsm_waits_for_copies(self, controller):
        force_consolidation(controller)
        policy = controller.power_down
        if not policy.pending_power_downs():
            pytest.skip("this layout needed no live-segment migration")
        # Victims are fenced but still in standby, holding their data.
        pending = policy.pending_power_downs()[0]
        for rank_id in pending.victims:
            assert controller.device.ranks[rank_id].state \
                is PowerState.STANDBY
        assert controller.migration.pending_count() > 0

    def test_pump_completes_power_down(self, controller):
        force_consolidation(controller)
        policy = controller.power_down
        if not policy.pending_power_downs():
            pytest.skip("no migration needed")
        pending = policy.pending_power_downs()[0]
        # Grant bandwidth until the copies drain.
        for _ in range(10_000):
            if not policy.pending_power_downs():
                break
            controller.pump_migrations(now_ns=s_to_ns(3.0), lines=4096)
        assert not policy.pending_power_downs()
        for rank_id in pending.victims:
            assert controller.device.ranks[rank_id].state is PowerState.MPSM
        check(controller, balance_tolerance=10 ** 9)

    def test_fenced_ranks_refuse_new_allocations(self, controller):
        force_consolidation(controller)
        policy = controller.power_down
        fenced = {rank_id for pending in policy.pending_power_downs()
                  for rank_id in pending.victims}
        vm = controller.allocate_vm(1, 32 * MIB, now_ns=s_to_ns(4.0))
        for au_id in vm.au_ids:
            for offset in range(controller.host_layout.segments_per_au):
                hsn = controller.host_layout.pack_hsn(1, au_id, offset)
                dsn = controller.tables.walk(hsn).dsn
                assert controller.allocator.rank_of_dsn(dsn) not in fenced

    def test_busy_channels_stall_copies(self, controller):
        force_consolidation(controller)
        if not controller.power_down.pending_power_downs():
            pytest.skip("no migration needed")
        busy = set(range(controller.geometry.channels))
        assert controller.pump_migrations(s_to_ns(5.0), lines=64,
                                          busy_channels=busy) == 0

    def test_foreground_writes_still_consistent(self, controller):
        vm_b = force_consolidation(controller)
        # Write to the surviving VM while copies are in flight.
        for offset in range(8):
            controller.access(0, controller.hpa_of(vm_b.au_ids[0], offset),
                              is_write=True)
        for _ in range(10_000):
            if not controller.power_down.pending_power_downs():
                break
            controller.pump_migrations(now_ns=s_to_ns(6.0), lines=4096)
        check(controller, balance_tolerance=10 ** 9)


class TestFreeingAVmWithCopiesPending:
    """Regression: freeing a VM whose segments wait for a consolidation
    copy used to leave the requests tracked; the next pump then retired
    them into an AU that no longer existed (``TranslationError`` out of
    ``remap_segment``) and their reserved targets leaked."""

    def test_pending_copies_are_cancelled_with_the_vm(self, controller):
        vm_b = force_consolidation(controller)
        engine = controller.migration
        submitted = engine.pending_count()
        assert submitted == 16
        victims = controller.power_down.pending_power_downs()[0].victims
        controller.deallocate_vm(vm_b, now_ns=s_to_ns(3.0))
        # Cancelled, not retired: nothing to copy, nothing reserved.
        assert engine.pending_count() == 0
        assert not engine.has_tracked_requests
        assert engine.stats.segments_migrated == 0
        assert controller.allocator.allocated_count() == 0
        assert controller.trace.counts_by_kind()["migration_cancel"] \
            == submitted
        check(controller)
        # The pending power-down has nothing left to wait for.
        controller.pump_migrations(now_ns=s_to_ns(4.0), lines=4096)
        assert not controller.power_down.pending_power_downs()
        for rank_id in victims:
            assert controller.device.ranks[rank_id].state is PowerState.MPSM
        check(controller)

    def test_copy_in_flight_is_cancelled_too(self, controller):
        vm_b = force_consolidation(controller)
        engine = controller.migration
        # Start both channels' first copy: one request each now sits in
        # the in-flight register, part-way through.
        controller.pump_migrations(now_ns=s_to_ns(2.5), lines=100)
        assert engine.stats.lines_copied == 200
        controller.deallocate_vm(vm_b, now_ns=s_to_ns(3.0))
        assert engine.pending_count() == 0
        assert controller.allocator.allocated_count() == 0
        for _ in range(3):
            controller.pump_migrations(now_ns=s_to_ns(4.0), lines=4096)
        assert engine.stats.lines_copied == 200
        assert engine.stats.segments_migrated == 0
        check(controller)

    def test_other_vms_copies_keep_going(self, controller):
        vm_b = force_consolidation(controller)
        # A third VM lands next to vm_b's not-yet-moved segments.
        vm_c = controller.allocate_vm(1, 16 * MIB, now_ns=s_to_ns(2.5))
        moving = {request.hsn
                  for request in controller.migration.tracked_requests()}
        controller.deallocate_vm(vm_c, now_ns=s_to_ns(3.0))
        assert {request.hsn for request
                in controller.migration.tracked_requests()} == moving
        for _ in range(10_000):
            if not controller.power_down.pending_power_downs():
                break
            controller.pump_migrations(now_ns=s_to_ns(4.0), lines=4096)
        assert controller.migration.stats.segments_migrated == len(moving)
        for au_id in vm_b.au_ids:
            controller.access(0, controller.hpa_of(au_id, 0))
        check(controller, balance_tolerance=10 ** 9)


class TestRetiringARankWithCopiesPending:
    """Regression: a rank that is the source or target of a background
    copy holds segments that are allocated but not (or no longer solely)
    mapped; retiring it used to raise ``TranslationError: DSN ... holds
    no segment`` out of the evacuation."""

    @pytest.mark.parametrize("role", ["old_dsn", "new_dsn"])
    def test_pending_copies_finish_before_the_evacuation(self, controller,
                                                         role):
        vm_b = force_consolidation(controller)
        request = controller.migration.tracked_requests()[0]
        rank_id = controller.allocator.rank_of_dsn(getattr(request, role))
        record = controller.retire_rank(*rank_id, now_ns=s_to_ns(3.0))
        assert controller.migration.pending_count() == 0
        assert controller.migration.stats.segments_migrated \
            == 16 + record.migrated_segments
        assert controller.device.ranks[rank_id].state is PowerState.MPSM
        controller.pump_migrations(now_ns=s_to_ns(4.0))
        assert not controller.power_down.pending_power_downs()
        for au_id in vm_b.au_ids:
            controller.access(0, controller.hpa_of(au_id, 0))
        check(controller, balance_tolerance=10 ** 9)


class TestCompletionWindow:
    def test_write_during_completion_window_routes_to_new_dsn(self,
                                                              controller):
        """Regression (Section 4.2): after the last line is copied the
        request sits one pump with its completion bit set and the mapping
        update pending; a foreground write in that window must reach the
        new DSN through the *live* access path."""
        force_consolidation(controller)
        engine = controller.migration
        request = None
        for channel in range(controller.geometry.channels):
            if engine.queued(channel):
                request = engine.queued(channel)[0]
                break
        if request is None:
            pytest.skip("this layout needed no live-segment migration")
        channel = engine.channel_of(request.old_dsn)
        engine.step_channel(channel, lines=request.lines_total)
        assert request.completion
        assert engine.request_for(request.old_dsn) == request
        host_id, au_id, au_offset = controller.host_layout.unpack_hsn(
            request.hsn)
        hpa = controller.hpa_of(au_id, au_offset)
        write = controller.access(host_id, hpa, is_write=True)
        assert write.routed_to_new_dsn
        assert write.dsn == request.new_dsn
        assert engine.stats.foreground_redirects == 1
        # The next pumps retire the request and update the mapping.
        for _ in range(10_000):
            if not controller.power_down.pending_power_downs():
                break
            controller.pump_migrations(now_ns=s_to_ns(3.0), lines=4096)
        read = controller.access(host_id, hpa)
        assert read.dsn == request.new_dsn
        assert not read.routed_to_new_dsn
        check(controller, balance_tolerance=10 ** 9)


class TestSynchronousDefault:
    def test_default_mode_drains_inline(self):
        controller = DtlController(DtlConfig(
            geometry=DramGeometry(channels=2, ranks_per_channel=4,
                                  rank_bytes=64 * MIB),
            au_bytes=16 * MIB, enable_self_refresh=False))
        vm_a = controller.allocate_vm(0, 96 * MIB, now_ns=0)
        controller.allocate_vm(0, 96 * MIB, now_ns=s_to_ns(1.0))
        controller.deallocate_vm(vm_a, now_ns=s_to_ns(2.0))
        assert controller.migration.pending_count() == 0
        assert not controller.power_down.pending_power_downs()
