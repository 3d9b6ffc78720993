"""``allocate_vm`` / ``deallocate_vm`` against the per-AU loop.

The controller takes a VM's segments in one allocator pass, installs and
tears down all its AUs in one table scatter each, and frees them in one
allocator call (docs/PERF.md, "Per VM, not per AU").  The oracle is the
loop that did each step once per AU (``per_au_controller_reference.py``):
twin controllers run the same hypothesis-drawn sequences of 1–16-AU
allocations, frees, self-refresh ticks and migration pumps, one through
each, and must agree after every step on the tables, each rank's free
queue in order, the allocated flags, the free-AU queues, the returned
``PowerTransition``s, every counter and every event.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.errors import AllocationError
from repro.telemetry import EventKind
from repro.units import MIB, NS_PER_S

from tests.core import per_au_controller_reference as per_au
from tests.core.test_bulk_control_plane import control_plane_state

GEOMETRY = DramGeometry(channels=2, ranks_per_channel=4,
                        rank_bytes=64 * MIB)  # 32 segments per rank
AU_BYTES = 8 * MIB  # four segments, two per channel
#: Clock advance per self-refresh tick; a channel left alone for
#: ten of them enters self-refresh (50 ms profiling threshold).
TICK_NS = 5_000_000

CONFIGS = {
    "power-down": {"enable_self_refresh": False},
    "power-down+self-refresh": {},
    "background": {"enable_self_refresh": False,
                   "background_migration": True},
    "background+self-refresh": {"background_migration": True},
}

OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("allocate"), st.integers(0, 1), st.integers(1, 16)),
    st.tuples(st.just("free"), st.integers(0, 63)),
    st.tuples(st.just("tick"), st.integers(1, 30)),
    st.tuples(st.just("pump"), st.integers(1, 64)),
), max_size=20)


class Twin:
    """One controller, the VM lifecycle it runs, and what it returned."""

    def __init__(self, config: dict, allocate, deallocate):
        self.controller = DtlController(DtlConfig(
            geometry=GEOMETRY, au_bytes=AU_BYTES, **config))
        self.allocate, self.deallocate = allocate, deallocate
        self.vms = []
        self.returned = []
        self.now_ns = 0

    def apply(self, operation) -> None:
        controller = self.controller
        self.now_ns += 1_000_000
        kind, argument = operation[0], operation[-1]
        if kind == "allocate":
            self.vms.append(self.allocate(controller, operation[1],
                                          argument * AU_BYTES,
                                          now_ns=self.now_ns))
        elif kind == "free" and self.vms:
            vm = self.vms.pop(argument % len(self.vms))
            self.returned.append(self.deallocate(controller, vm,
                                                 now_ns=self.now_ns))
        elif kind == "tick":
            for _ in range(argument):
                self.now_ns += TICK_NS
                controller.tick(self.now_ns)
                controller.end_window()
        elif kind == "pump":
            controller.pump_migrations(self.now_ns, lines=argument)

    def state(self) -> dict:
        controller = self.controller
        return {
            **control_plane_state(controller),
            "in_use": controller.allocator._in_use.tolist(),
            "free_au_queues": {host_id: list(queue) for host_id, queue
                               in controller._free_au_ids.items()},
            "vms": [(vm.vm_id, vm.host_id, vm.au_ids, vm.reserved_bytes)
                    for vm in self.vms],
            "returned": self.returned,
            "trace": controller.trace.to_list(),
        }


def twins(name: str) -> tuple[Twin, Twin]:
    return (Twin(CONFIGS[name], DtlController.allocate_vm,
                 DtlController.deallocate_vm),
            Twin(CONFIGS[name], per_au.allocate_vm, per_au.deallocate_vm))


def rejected(twin: Twin, operation) -> bool:
    try:
        twin.apply(operation)
    except AllocationError:
        return True
    return False


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=60, deadline=None)
@given(operations=OPERATIONS)
def test_vm_lifecycle_matches_the_per_au_loop(name, operations):
    per_vm, reference = twins(name)
    for operation in operations:
        rejection = rejected(per_vm, operation)
        assert rejected(reference, operation) == rejection
        if rejection:
            # The per-AU loop leaves the AUs it took behind; the
            # controller's books must be as they were before the call.
            break
        assert per_vm.state() == reference.state()


def test_allocation_wakes_ranks_in_the_per_au_order():
    """A VM whose AUs land on different ranks wakes every one of them
    that is in self-refresh, AU by AU, in the order the per-AU loop
    did: the ``POWER_TRANSITION`` events match one for one."""
    geometry = DramGeometry(channels=4, ranks_per_channel=4,
                            rank_bytes=8 * MIB)  # four segments per rank
    controllers = []
    for allocate in (DtlController.allocate_vm, per_au.allocate_vm):
        controller = DtlController(DtlConfig(geometry=geometry,
                                             au_bytes=AU_BYTES))
        for rank_id in controller.device.ranks:
            controller.device.set_rank_state(rank_id,
                                             PowerState.SELF_REFRESH, 0)
        vm = allocate(controller, 0, 16 * AU_BYTES, now_ns=NS_PER_S)
        assert vm.au_ids == tuple(range(16))
        controllers.append(controller)
    per_vm, reference = controllers
    woken = per_vm.trace.events(EventKind.POWER_TRANSITION)
    assert len(woken) == 2 * len(per_vm.device.ranks)
    assert per_vm.trace.to_list() == reference.trace.to_list()


@pytest.mark.parametrize("self_refresh", [False, True])
def test_free_with_copies_pending_matches_the_per_au_loop(self_refresh):
    """A consolidation's background copies are still queued when the
    VMs they move are freed: each AU's cancelled targets go back before
    its own segments."""
    name = "background+self-refresh" if self_refresh else "background"
    per_vm, reference = twins(name)
    script = [("allocate", 0, 3), ("allocate", 1, 5), ("allocate", 0, 2),
              ("allocate", 1, 7), ("free", 1)]
    for operation in script:
        per_vm.apply(operation)
        reference.apply(operation)
    assert per_vm.controller.migration.has_tracked_requests
    while per_vm.vms:
        per_vm.apply(("free", 0))
        reference.apply(("free", 0))
        assert per_vm.state() == reference.state()
    assert per_vm.controller.trace.counts_by_kind()["migration_cancel"] > 0
