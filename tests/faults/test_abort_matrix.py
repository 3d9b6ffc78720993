"""Injected migration aborts at every progress counter.

Exhaustively aborts a segment copy at each progress 0..N on a tiny
geometry (16 cachelines per segment) and proves the abort path restores
the world exactly: mapping tables stay consistent, the migration-table
entry is rewound to a clean start, rank access counters and CLOCK
access bits are untouched, and the retried copy still lands.
"""

import pytest

from repro.core.checker import ConsistencyChecker, check
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.faults.hooks import HookPoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, MigrationAbortFault

LINES_PER_SEGMENT = 16


def make_controller() -> DtlController:
    return DtlController(DtlConfig(
        geometry=DramGeometry(channels=2, ranks_per_channel=2,
                              rank_bytes=64 * 1024, segment_bytes=1024),
        au_bytes=2048))


def submit_one(controller):
    """Allocate one AU and submit a same-rank migration of its first segment."""
    vm = controller.allocate_vm(0, 2048)
    hsn = controller.host_layout.pack_hsn(0, vm.au_ids[0], 0)
    old_dsn = controller.tables.try_walk(hsn)
    rank = controller.allocator.rank_of_dsn(old_dsn)
    new_dsn = controller.allocator.allocate_in_rank(rank, 1)[0]
    request = controller.migration.submit(hsn, old_dsn, new_dsn)
    return hsn, old_dsn, new_dsn, request


def arm_abort(controller, progress):
    injector = FaultInjector(
        FaultPlan(specs=(MigrationAbortFault(at_lines_done=progress,
                                             max_fires=1),)),
        registry=controller.metrics, trace=controller.trace)
    controller.arm_faults(injector)
    return injector


class TestAbortMatrix:
    @pytest.mark.parametrize("progress", range(LINES_PER_SEGMENT))
    def test_abort_at_every_progress_counter(self, progress):
        controller = make_controller()
        hsn, old_dsn, new_dsn, request = submit_one(controller)
        injector = arm_abort(controller, progress)
        channel = controller.migration.channel_of(old_dsn)
        assert request.lines_total == LINES_PER_SEGMENT

        rank_counts = {rank_id: rank.access_count
                       for rank_id, rank in controller.device.ranks.items()}
        bits_before = controller.self_refresh.access_bits.copy()

        if progress:
            controller.migration.step_channel(channel, lines=progress)
        assert request.lines_done == progress
        controller.migration.step_channel(channel, lines=1)

        # The abort fired and rewound the request to a clean start.
        assert injector.injected(HookPoint.MIGRATION_COPY) == 1
        assert request.lines_done == 0
        assert not request.completion
        assert request.retries == 1
        assert controller.migration.request_for(old_dsn) == request

        # Nothing else moved: the aborted copy perturbs neither rank
        # access counters nor CLOCK bits, and every invariant holds.
        # The reserved destination puts one extra segment on its
        # channel, hence the balance tolerance of 1.
        assert rank_counts == {
            rank_id: rank.access_count
            for rank_id, rank in controller.device.ranks.items()}
        assert (bits_before == controller.self_refresh.access_bits).all()
        assert ConsistencyChecker(controller).audit(
            balance_tolerance=1).ok

        # The retry (fire cap reached) runs to completion.
        controller.migration.drain()
        assert controller.tables.try_walk(hsn) == new_dsn
        assert controller.migration.request_for(old_dsn) is None
        check(controller)

    def test_abort_at_full_progress_never_fires(self):
        # progress == N is unreachable: the completion bit is set in the
        # same step that copies the last line, and retirement precedes
        # the next hook consultation — an abort past the completion bit
        # would lose redirected foreground writes.
        controller = make_controller()
        hsn, old_dsn, new_dsn, request = submit_one(controller)
        injector = arm_abort(controller, LINES_PER_SEGMENT)
        channel = controller.migration.channel_of(old_dsn)
        controller.migration.step_channel(channel,
                                          lines=LINES_PER_SEGMENT)
        assert request.completion
        controller.migration.drain()
        assert injector.injected(HookPoint.MIGRATION_COPY) == 0
        assert controller.tables.try_walk(hsn) == new_dsn
        check(controller)

    def test_clock_bit_travels_on_retirement(self):
        controller = make_controller()
        hsn, old_dsn, new_dsn, request = submit_one(controller)
        controller.self_refresh.access_bits[old_dsn] = True
        arm_abort(controller, 7)
        controller.migration.drain()
        assert controller.tables.try_walk(hsn) == new_dsn
        assert controller.self_refresh.access_bits[new_dsn]
        assert not controller.self_refresh.access_bits[old_dsn]

    def test_repeated_aborts_requeue_and_still_land(self):
        controller = make_controller()
        hsn, old_dsn, new_dsn, request = submit_one(controller)
        fires = controller.migration.max_retries + 2
        injector = FaultInjector(
            FaultPlan(specs=(MigrationAbortFault(max_fires=fires),)),
            registry=controller.metrics, trace=controller.trace)
        controller.arm_faults(injector)
        controller.migration.drain()
        assert injector.injected(HookPoint.MIGRATION_COPY) == fires
        assert controller.migration.stats.requeues >= 1
        assert controller.tables.try_walk(hsn) == new_dsn
        check(controller)
