"""A finished controller is freed by reference counting alone.

The migration engine calls back into its controller when a copy
retires.  Held strongly, that bound method closed a cycle (controller ->
engine -> bound method -> controller), so every controller a run made
stayed in memory until a full collection.  With the collector off,
dropping the last outside reference must free it — and the callback
must still reach the controller, including one restored from a pickle.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from contextlib import contextmanager

import pytest

from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.host.scheduler import SchedulerConfig
from repro.sim.powerdown_sim import ComparisonSimulator, PowerDownSimConfig
from repro.units import MIB
from repro.workloads.azure import AzureTraceConfig


@contextmanager
def collector_off():
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def small_controller() -> DtlController:
    return DtlController(DtlConfig(
        geometry=DramGeometry(channels=2, ranks_per_channel=4,
                              rank_bytes=64 * MIB),
        au_bytes=16 * MIB, background_migration=True))


def test_a_fresh_controller_dies_with_its_last_reference():
    with collector_off():
        controller = DtlController(DtlConfig())
        ref = weakref.ref(controller)
        del controller
        assert ref() is None


def test_every_controller_of_a_comparison_dies_with_its_result(monkeypatch):
    made = []
    init = DtlController.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(DtlController, "__init__", recording_init)
    config = PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=60, duration_s=3600.0),
        scheduler=SchedulerConfig(duration_s=3600.0), seed=1)
    with collector_off():
        result = ComparisonSimulator(config).run()
        assert len(made) == 2  # the baseline and the DTL leg
        del result
        assert [ref() for ref in made] == [None] * len(made)


@pytest.mark.parametrize("restored", [False, True])
def test_completions_reach_the_controller(restored):
    """A retired copy remaps its segment — on the live controller and on
    one restored from a pickle taken with the copy in flight."""
    controller = small_controller()
    vm = controller.allocate_vm(0, 16 * MIB)
    hsn = controller.host_layout.pack_hsn(0, vm.au_ids[0], 0)
    old_dsn = controller.tables.walk(hsn).dsn
    layout = controller.device_layout
    new_dsn = next(
        dsn for dsn in range(controller.geometry.total_segments)
        if layout.channel_of_dsn(dsn) == layout.channel_of_dsn(old_dsn)
        and not controller.allocator.is_allocated(dsn))
    controller.allocator.reserve_specific(new_dsn)
    controller.migration.submit(hsn, old_dsn, new_dsn)
    if restored:
        controller = pickle.loads(pickle.dumps(controller))
    controller.migration.drain()
    assert controller.tables.walk(hsn).dsn == new_dsn
    with collector_off():
        ref = weakref.ref(controller)
        del controller
        assert ref() is None
