"""Tests for shared-fabric contention on the pooled-memory node.

Covers the M/D/1 queueing math in :func:`repro.cxl.pool.pool_contention`,
the utilisation cap and config validation.
"""

from __future__ import annotations

import pytest

from repro.cxl.pool import PoolContentionConfig, pool_contention
from repro.errors import ConfigurationError


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



class TestPoolStatsUtilization:
    def test_rack_wiring_reports_occupancy(self):
        """rack_summaries() reports each rack's pool capacity and
        occupancy alongside its contention."""
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
            assert rack.num_nodes == 2
            assert rack.total_bytes == 2 * node.geometry.total_bytes
            assert 0.0 < rack.reserved_bytes < rack.total_bytes
            assert rack.contention.demand_gbs == rack.demand_gbs
