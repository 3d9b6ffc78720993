"""Tests for shared-fabric contention on the pooled-memory node.

Covers the M/D/1 queueing math in :func:`repro.cxl.pool.pool_contention`,
the utilisation cap, config validation, multi-host reservation pressure
on :class:`MemoryPool`, and ``PoolStats.utilization`` as surfaced
through the rack wiring (``FleetResult.rack_summaries``).
"""

from __future__ import annotations

import pytest

from repro.core.config import DtlConfig
from repro.cxl.pool import (MemoryPool, PoolContentionConfig, PoolStats,
                            pool_contention)
from repro.dram.geometry import DramGeometry
from repro.errors import AllocationError, ConfigurationError
from repro.units import GIB, MIB


class TestContentionMath:
    def test_zero_demand_is_uncontended(self):
        contention = pool_contention(0.0)
        assert contention.utilization == 0.0
        assert contention.queue_delay_ns == 0.0
        assert contention.slowdown == 1.0
        assert not contention.saturated

    def test_md1_mean_wait_formula(self):
        config = PoolContentionConfig(bandwidth_gbs=100.0,
                                      service_ns=200.0)
        contention = pool_contention(50.0, config)
        rho = 0.5
        expected_wait = 200.0 * rho / (2.0 * (1.0 - rho))
        assert contention.utilization == pytest.approx(rho)
        assert contention.queue_delay_ns == pytest.approx(expected_wait)
        assert contention.slowdown == pytest.approx(
            (200.0 + expected_wait) / 200.0)

    def test_slowdown_monotonic_in_demand(self):
        slowdowns = [pool_contention(demand).slowdown
                     for demand in (0.0, 32.0, 64.0, 96.0, 120.0)]
        assert slowdowns == sorted(slowdowns)
        assert slowdowns[0] == 1.0 < slowdowns[-1]

    def test_demand_beyond_cap_saturates(self):
        config = PoolContentionConfig(bandwidth_gbs=100.0,
                                      max_utilization=0.9)
        contention = pool_contention(500.0, config)
        assert contention.utilization == 0.9  # clipped, not 5.0
        assert contention.saturated
        # Finite delay even at 5x overload: credit backpressure, not an
        # unbounded queue.
        assert contention.queue_delay_ns < float("inf")
        at_cap = pool_contention(90.0, config)
        assert contention.queue_delay_ns == at_cap.queue_delay_ns
        assert not at_cap.saturated

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            pool_contention(-1.0)


class TestContentionConfig:
    def test_defaults_are_valid(self):
        config = PoolContentionConfig()
        assert config.bandwidth_gbs > 0
        assert 0.0 < config.max_utilization < 1.0

    @pytest.mark.parametrize("bandwidth", [0.0, -8.0])
    def test_rejects_nonpositive_bandwidth(self, bandwidth):
        with pytest.raises(ConfigurationError):
            PoolContentionConfig(bandwidth_gbs=bandwidth)

    @pytest.mark.parametrize("cap", [0.0, 1.0, 1.5])
    def test_rejects_degenerate_utilization_cap(self, cap):
        with pytest.raises(ConfigurationError):
            PoolContentionConfig(max_utilization=cap)


def _make_pool(devices=2, placement="pack"):
    config = DtlConfig(geometry=DramGeometry(rank_bytes=256 * MIB),
                       au_bytes=64 * MIB, group_granularity=2)
    return MemoryPool([config] * devices, placement=placement)


class TestMultiHostPressure:
    """Several compute hosts reserving against one pool node, Figure 3
    style: utilisation climbs host by host until the pool refuses."""

    def test_utilization_climbs_with_each_host(self):
        pool = _make_pool(devices=2)  # 16 GiB total
        utilisations = [pool.stats().utilization]
        for host_id in range(4):
            pool.allocate_vm(host_id, 3 * GIB, now_s=float(host_id))
            utilisations.append(pool.stats().utilization)
        assert utilisations == sorted(utilisations)
        assert utilisations[-1] == pytest.approx(12 / 16)

    def test_pressure_eventually_rejects(self):
        pool = _make_pool(devices=2)
        placed = 0
        with pytest.raises(AllocationError):
            for host_id in range(16):
                pool.allocate_vm(host_id, 3 * GIB)
                placed += 1
        # 4 x 3 GiB fit in 2 x 8 GiB devices (2 GiB of stranded slack
        # per device can't hold a fifth).
        assert placed == 4
        assert pool.stats().utilization == pytest.approx(12 / 16)

    def test_departures_release_pressure(self):
        pool = _make_pool(devices=2)
        handles = [pool.allocate_vm(host, 3 * GIB, now_s=float(host))
                   for host in range(4)]
        high = pool.stats().utilization
        for handle in handles[:2]:
            pool.deallocate_vm(handle, now_s=10.0)
        low = pool.stats().utilization
        assert low == pytest.approx(high / 2)
        # Freed capacity is immediately placeable by a new host.
        pool.allocate_vm(9, 3 * GIB, now_s=11.0)
        assert pool.stats().utilization == pytest.approx(high * 0.75)


class TestPoolStatsUtilization:
    def test_empty_pool_is_zero(self):
        assert PoolStats(devices=1, total_bytes=0,
                         reserved_bytes=0).utilization == 0.0

    def test_rack_wiring_reports_occupancy(self):
        """rack_summaries() surfaces each rack's pool occupancy through
        the same PoolStats type the MemoryPool reports."""
        from repro.host.scheduler import SchedulerConfig
        from repro.sim.fleet import FleetSimulator, RackConfig
        from repro.sim.powerdown_sim import PowerDownSimConfig
        from repro.workloads.azure import AzureTraceConfig

        node = PowerDownSimConfig(
            azure=AzureTraceConfig(num_vms=8, duration_s=600.0),
            scheduler=SchedulerConfig(duration_s=600.0))
        config = RackConfig(num_nodes=4, node=node, hosts_per_rack=2)
        result = FleetSimulator(config).run()
        racks = result.rack_summaries()
        assert len(racks) == 2
        for rack in racks:
            stats = rack.pool_stats()
            assert stats.devices == 2
            assert stats.total_bytes == 2 * node.geometry.total_bytes
            assert 0.0 < stats.utilization < 1.0
            assert stats.reserved_bytes == int(round(rack.reserved_bytes))
