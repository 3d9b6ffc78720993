"""End-to-end integration tests crossing subsystem boundaries."""

import numpy as np
import pytest

from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram import DramDevice, DramGeometry, PowerState
from repro.host.caches import CacheHierarchy, CacheLevelConfig
from repro.units import CACHELINE_BYTES, GIB, MIB, s_to_ns
from repro.workloads.cloudsuite import make_trace


@pytest.fixture
def controller():
    return DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=512 * MIB), au_bytes=128 * MIB,
        group_granularity=2))


class TestVmChurn:
    def test_many_vm_cycles_preserve_consistency(self, controller):
        """Allocate/deallocate churn: mappings, allocator, and power
        states stay consistent throughout."""
        rng = np.random.default_rng(0)
        live = []
        for step in range(40):
            if live and rng.random() < 0.45:
                vm = live.pop(rng.integers(len(live)))
                controller.deallocate_vm(vm, now_ns=s_to_ns(step))
            else:
                size = int(rng.choice([128, 256, 384])) * MIB
                try:
                    live.append(controller.allocate_vm(
                        int(rng.integers(4)), size, now_ns=s_to_ns(step)))
                except Exception:
                    pass
            # Invariants after every step:
            reserved = sum(vm.reserved_bytes for vm in live)
            assert controller.reserved_bytes() == reserved
            assert controller.allocator.allocated_count() == \
                reserved // controller.geometry.segment_bytes
            # Channel balance of active ranks.
            per_channel = {controller.device
                           .standby_ranks_per_channel(c)
                           for c in range(4)}
            assert len(per_channel) == 1
        # Finally: every live VM's memory is still reachable and correct.
        for vm in live:
            for au_id in vm.au_ids:
                hpa = controller.hpa_of(au_id, 0)
                result = controller.access(vm.host_id, hpa)
                hsn = controller.tables.hsn_of_dsn(result.dsn)
                assert hsn is not None

    def test_power_states_track_occupancy(self, controller):
        big = controller.allocate_vm(0, 4 * GIB)
        full_mpsm = controller.device.state_counts()[PowerState.MPSM]
        controller.deallocate_vm(big, now_ns=s_to_ns(10.0))
        empty_mpsm = controller.device.state_counts()[PowerState.MPSM]
        assert empty_mpsm > full_mpsm


class TestTraceThroughFullStack:
    def test_synthetic_trace_through_cache_and_dtl(self):
        """Host accesses -> cache hierarchy -> post-cache requests ->
        DTL translation -> DRAM ranks, end to end."""
        controller = DtlController(DtlConfig(
            geometry=DramGeometry(rank_bytes=512 * MIB),
            au_bytes=128 * MIB, enable_self_refresh=False))
        vm = controller.allocate_vm(0, 256 * MIB)
        hierarchy = CacheHierarchy((
            CacheLevelConfig("L1", 32 * 1024, 8),
            CacheLevelConfig("LLC", 256 * 1024, 16),
        ))
        trace = make_trace("data-serving", 5_000,
                           footprint_bytes=256 * MIB, seed=0)
        segments_per_au = controller.host_layout.segments_per_au
        touched_ranks = set()
        post_cache = 0
        for address in trace.addresses[:5_000]:
            for request in hierarchy.access(int(address), is_write=False):
                segment = request.address // (2 * MIB)
                au_index = vm.au_ids[segment // segments_per_au]
                hpa = controller.hpa_of(au_index, segment % segments_per_au,
                                        request.address % (2 * MIB))
                result = controller.access(0, hpa)
                touched_ranks.add((result.channel, result.rank))
                post_cache += 1
        assert 0 < post_cache < 5_000  # the hierarchy filtered something
        channels = {channel for channel, _ in touched_ranks}
        assert channels == {0, 1, 2, 3}  # channel interleaving works

    def test_accesses_never_hit_mpsm_ranks(self, controller):
        """The allocation policy guarantees MPSM ranks hold no data, so
        no access can ever reach them."""
        vm = controller.allocate_vm(0, 1 * GIB, now_ns=0)
        filler = controller.allocate_vm(0, 2 * GIB, now_ns=s_to_ns(1.0))
        # Triggers power-down.
        controller.deallocate_vm(filler, now_ns=s_to_ns(2.0))
        mpsm_ranks = {rank_id for rank_id, rank
                      in controller.device.ranks.items()
                      if rank.state is PowerState.MPSM}
        assert mpsm_ranks
        rng = np.random.default_rng(1)
        for _ in range(200):
            au_index = vm.au_ids[int(rng.integers(len(vm.au_ids)))]
            offset = int(rng.integers(
                controller.host_layout.segments_per_au))
            result = controller.access(
                0, controller.hpa_of(au_index, offset))
            assert (result.channel, result.rank) not in mpsm_ranks


class TestSelfRefreshIntegration:
    def test_sr_sleeping_rank_survives_unrelated_traffic(self):
        controller = DtlController(DtlConfig(
            geometry=DramGeometry(channels=2, ranks_per_channel=4,
                                  rank_bytes=64 * MIB),
            au_bytes=16 * MIB, enable_power_down=False,
            profiling_threshold_ns=1000.0))
        vm = controller.allocate_vm(0, 64 * MIB)
        policy = controller.self_refresh
        assert policy is not None
        # Warm a few segments so the data-holding ranks are not victims.
        hot_hpas = [controller.hpa_of(vm.au_ids[0], offset)
                    for offset in range(4)]
        for hpa in hot_hpas:
            for _ in range(3):
                controller.access(0, hpa, now_ns=10.0)
        controller.end_window()
        controller.tick(now_ns=20.0)       # start profiling
        controller.tick(now_ns=5000.0)     # quiet -> victim sleeps
        sleeping = {(c, r.index) for c in range(2)
                    for r in controller.device.ranks_in_channel(c)
                    if r.state is PowerState.SELF_REFRESH}
        assert sleeping
        # Traffic to the hot (awake) segments must not disturb the
        # sleeping ranks.
        for hpa in hot_hpas:
            result = controller.access(0, hpa, now_ns=6000.0)
            assert (result.channel, result.rank) not in sleeping
        still_sleeping = {(c, r.index) for c in range(2)
                          for r in controller.device.ranks_in_channel(c)
                          if r.state is PowerState.SELF_REFRESH}
        assert sleeping == still_sleeping


class TestEndToEndEnergyStory:
    def test_dtl_device_beats_static_baseline(self):
        """The headline claim in miniature: a DTL device holding a
        half-empty pool consumes less background power than a vanilla
        device of the same size."""
        geometry = DramGeometry(rank_bytes=512 * MIB)
        # No DTL: a fixed HPA-to-DPA mapping can address any rank at any
        # time, so every rank stays in standby whatever is allocated.
        static = DramDevice(geometry)

        dtl = DtlController(DtlConfig(
            geometry=geometry, au_bytes=128 * MIB, group_granularity=2))
        dtl.allocate_vm(0, 8 * GIB)
        extra = dtl.allocate_vm(0, 4 * GIB)
        dtl.deallocate_vm(extra, now_ns=s_to_ns(1.0))

        assert dtl.device.background_power() < \
            static.background_power()
