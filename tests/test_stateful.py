"""Stateful property-based testing of the DTL controller.

A hypothesis rule-based state machine drives random interleavings of VM
allocation, deallocation, memory accesses, time ticks, and rank
retirement, and audits every cross-structure invariant after each step
via :mod:`repro.core.checker` — once with consolidation drained inline
(the default config) and once with it left to a background pump.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core.checker import ConsistencyChecker
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.errors import AllocationError, PowerStateError
from repro.units import MIB, s_to_ns


class DtlMachine(RuleBasedStateMachine):
    """Random controller workloads with invariant audits after each rule."""

    #: ``DtlConfig.background_migration`` of the controller under test.
    background_migration = False

    @initialize()
    def setup(self):
        self.controller = DtlController(DtlConfig(
            geometry=DramGeometry(channels=2, ranks_per_channel=4,
                                  rank_bytes=64 * MIB),
            au_bytes=16 * MIB,
            profiling_threshold_ns=1_000_000,
            background_migration=self.background_migration))
        self.checker = ConsistencyChecker(self.controller)
        self.vms = []
        self.clock_s = 0.0
        self.clock_ns = 0
        self.retired = 0

    def _advance(self, seconds: float = 1.0):
        self.clock_s += seconds
        self.clock_ns = s_to_ns(self.clock_s)

    @rule(host=st.integers(0, 3), aus=st.integers(1, 6))
    def allocate(self, host, aus):
        self._advance()
        try:
            vm = self.controller.allocate_vm(host, aus * 16 * MIB,
                                             now_ns=self.clock_ns)
            self.vms.append(vm)
        except AllocationError:
            pass  # device full: legitimate

    @precondition(lambda self: self.vms)
    @rule(index=st.integers(0, 10 ** 6))
    def deallocate(self, index):
        self._advance()
        vm = self.vms.pop(index % len(self.vms))
        self.controller.deallocate_vm(vm, now_ns=self.clock_ns)

    @precondition(lambda self: self.vms)
    @rule(index=st.integers(0, 10 ** 6), offset=st.integers(0, 10 ** 6),
          is_write=st.booleans())
    def access(self, index, offset, is_write):
        vm = self.vms[index % len(self.vms)]
        layout = self.controller.host_layout
        au = vm.au_ids[offset % len(vm.au_ids)]
        au_offset = offset % layout.segments_per_au
        self.controller.access(vm.host_id,
                               self.controller.hpa_of(au, au_offset),
                               is_write=is_write, now_ns=self.clock_ns)

    @rule()
    def tick(self):
        self._advance(0.01)
        self.controller.end_window()
        self.controller.tick(now_ns=self.clock_ns)

    @precondition(lambda self: self.retired < 2)
    @rule(channel=st.integers(0, 1), rank=st.integers(0, 3))
    def retire(self, channel, rank):
        self._advance()
        try:
            self.controller.retire_rank(channel, rank, now_ns=self.clock_ns)
            self.retired += 1
        except (AllocationError, PowerStateError):
            pass  # already retired, or no room to evacuate

    @invariant()
    def consistent(self):
        if not hasattr(self, "controller"):
            return
        # Self-refresh migration and retirement legitimately skew channel
        # balance by a few segments; conservation/mapping/SMC/MPSM
        # invariants must hold exactly.
        self.checker.assert_consistent(balance_tolerance=10 ** 9)

    @invariant()
    def balance_within_reason(self):
        if not hasattr(self, "controller") or self.retired:
            return
        allocator = self.controller.allocator
        counts = [allocator.channel_allocated(channel)
                  for channel in range(2)]
        assert max(counts) - min(counts) <= 2


class BackgroundDtlMachine(DtlMachine):
    """The same rules with consolidation copies left pending between
    them (the server's and the chaos soak's shipped default), plus the
    pump that grants them bandwidth."""

    background_migration = True

    @rule(lines=st.sampled_from([1, 4096, 32768, 10 ** 6]),
          busy=st.sets(st.integers(0, 1)))
    def pump(self, lines, busy):
        self._advance(0.01)
        self.controller.pump_migrations(self.clock_ns, lines=lines,
                                        busy_channels=busy)

    @invariant()
    def balance_within_reason(self):
        # Reserved copy targets sit on their channel until the copy
        # retires or is cancelled; only the untracked state is balanced.
        if hasattr(self, "controller") \
                and not self.controller.migration.has_tracked_requests:
            super().balance_within_reason()


STATEFUL_SETTINGS = settings(max_examples=25, stateful_step_count=30,
                             deadline=None)
TestDtlStateMachine = DtlMachine.TestCase
TestDtlStateMachine.settings = STATEFUL_SETTINGS
TestBackgroundDtlStateMachine = BackgroundDtlMachine.TestCase
TestBackgroundDtlStateMachine.settings = STATEFUL_SETTINGS
