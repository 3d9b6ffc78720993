"""Reference VM lifecycle for the per-VM control-plane differential tests.

``allocate_vm`` and ``deallocate_vm`` as the controller ran them when
every step was taken once per AU: an allocator pass, a table
validation and scatter, a wake-up screen and a free for each AU in
turn, and the AU ID handed back to its queue right after.  Easy to
trust by inspection; ``test_vm_lifecycle_differential.py`` drives it and
:class:`repro.core.controller.DtlController` through the same operation
sequences on twin controllers and requires equal state.

Only successful allocations are compared: this loop takes AUs until the
allocator runs dry and leaves the ones it took behind, where the
controller takes nothing; both raise ``AllocationError`` on the same
requests.
"""

from __future__ import annotations

import numpy as np

from repro.core.controller import DtlController, VmHandle
from repro.core.power_down import PowerTransition
from repro.dram.power import PowerState
from repro.errors import AllocationError


def wake_ranks_holding(controller: DtlController, dsns: np.ndarray,
                       now_ns: int) -> None:
    """Exit self-refresh on every rank among one AU's segments."""
    if not any(rank.state is PowerState.SELF_REFRESH
               for rank in controller.device.ranks.values()):
        return
    for rank_id in set(controller.allocator.ranks_of_dsns(dsns)):
        if controller.device.ranks[rank_id].state is PowerState.SELF_REFRESH:
            controller.device.set_rank_state(rank_id, PowerState.STANDBY,
                                             now_ns)


def allocate_vm(controller: DtlController, host_id: int,
                reserved_bytes: int, now_ns: int = 0) -> VmHandle:
    """``DtlController.allocate_vm``, one AU at a time."""
    num_aus = controller.aus_for_bytes(reserved_bytes)
    segments_per_au = controller.host_layout.segments_per_au
    if controller.power_down is not None:
        controller.power_down.ensure_capacity(num_aus * segments_per_au,
                                              now_ns)
    free_aus = controller._free_aus(host_id)
    if len(free_aus) < num_aus:
        raise AllocationError(
            f"host {host_id} has no free AU IDs for {num_aus} AUs")
    au_ids = tuple(free_aus.popleft() for _ in range(num_aus))
    for au_id in au_ids:
        controller.tables.allocate_au(host_id, [au_id])
        dsns = controller.allocator.allocate(segments_per_au)
        wake_ranks_holding(controller, dsns, now_ns)
        controller.tables.map_au_segments(host_id, [au_id], dsns)
    vm = VmHandle(vm_id=controller._next_vm_id, host_id=host_id,
                  au_ids=au_ids,
                  reserved_bytes=num_aus * controller.config.au_bytes)
    controller._next_vm_id += 1
    controller._vms[vm.vm_id] = vm
    return vm


def deallocate_vm(controller: DtlController, vm: VmHandle,
                  now_ns: int = 0) -> list[PowerTransition]:
    """``DtlController.deallocate_vm``, one AU at a time."""
    if vm.vm_id not in controller._vms:
        raise AllocationError(f"VM {vm.vm_id} is not live")
    segments_per_au = controller.host_layout.segments_per_au
    controller.translation.invalidate_batch(
        controller.host_layout.pack_hsn_batch(
            vm.host_id,
            np.repeat(np.asarray(vm.au_ids, dtype=np.int64),
                      segments_per_au),
            np.tile(np.arange(segments_per_au, dtype=np.int64),
                    len(vm.au_ids))))
    copies_pending = controller.migration.has_tracked_requests
    free_aus = controller._free_aus(vm.host_id)
    for au_id in vm.au_ids:
        dsns = controller.tables.free_au(vm.host_id, [au_id])
        if copies_pending:
            controller.allocator.free(controller.migration.cancel(dsns))
        controller.allocator.free(dsns)
        free_aus.append(au_id)
    del controller._vms[vm.vm_id]
    if controller.power_down is not None:
        return controller.power_down.maybe_power_down(now_ns)
    return []
