"""Tests for the schedule-level power-down simulator (Figure 12)."""

import pytest

from repro.dram.geometry import DramGeometry
from repro.host.scheduler import SchedulerConfig
from repro.sim.powerdown_sim import (ComparisonSimulator, PowerDownSimConfig,
                                     PowerDownSimulator,
                                     background_power_savings, energy_savings,
                                     power_savings)
from repro.units import GIB
from repro.workloads.azure import AzureTraceConfig


@pytest.fixture(scope="module")
def quick_results():
    """One shared comparison on a one-hour, 60-VM schedule."""
    config = PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=60, duration_s=3600.0),
        scheduler=SchedulerConfig(duration_s=3600.0),
        seed=1)
    result = ComparisonSimulator(config).run()
    return result.baseline, result.dtl


class TestComparison:
    def test_dtl_saves_energy(self, quick_results):
        baseline, dtl = quick_results
        assert energy_savings(baseline, dtl) > 0.1

    def test_power_savings_exceed_energy_savings(self, quick_results):
        """Energy pays the execution-time stretch on top of power."""
        baseline, dtl = quick_results
        assert power_savings(baseline, dtl) > energy_savings(baseline, dtl)

    def test_background_dominates_savings(self, quick_results):
        baseline, dtl = quick_results
        assert background_power_savings(baseline, dtl) >= \
            power_savings(baseline, dtl) - 0.02

    def test_baseline_keeps_all_ranks(self, quick_results):
        baseline, _ = quick_results
        assert baseline.mean_active_ranks == 8.0
        assert baseline.execution_time_factor == 1.0

    def test_dtl_uses_fewer_ranks(self, quick_results):
        _, dtl = quick_results
        assert dtl.mean_active_ranks < 8.0

    def test_execution_factor_near_paper(self, quick_results):
        _, dtl = quick_results
        assert 1.005 < dtl.execution_time_factor < 1.04

    def test_migration_happened(self, quick_results):
        _, dtl = quick_results
        assert dtl.migrated_bytes >= 0
        assert dtl.power_transitions > 0


class TestIntervals:
    def test_interval_count(self, quick_results):
        _, dtl = quick_results
        assert len(dtl.intervals) == 12  # 1 h at 5-minute intervals

    def test_energy_consistency(self, quick_results):
        """Integrated energy equals the sum over interval records."""
        _, dtl = quick_results
        total = sum(record.total_power * record.duration_s
                    for record in dtl.intervals)
        assert total == pytest.approx(dtl.energy.total_j, rel=1e-6)

    def test_active_ranks_follow_reservations(self, quick_results):
        _, dtl = quick_results
        for record in dtl.intervals:
            reserved_per_channel = record.reserved_bytes / 4
            rank_bytes = 16 * GIB
            needed = reserved_per_channel / rank_bytes
            assert record.active_ranks_per_channel >= min(8, needed)

    def test_power_timeseries_shape(self, quick_results):
        _, dtl = quick_results
        times, powers = dtl.power_timeseries()
        assert len(times) == len(powers) == len(dtl.intervals)

    def test_even_interval_pacing(self, quick_results):
        _, dtl = quick_results
        assert all(record.duration_s == pytest.approx(300.0)
                   for record in dtl.intervals)


class TestDeterminism:
    def test_same_seed_same_result(self):
        config = PowerDownSimConfig(
            azure=AzureTraceConfig(num_vms=20, duration_s=1800.0),
            scheduler=SchedulerConfig(duration_s=1800.0), seed=3)
        a = PowerDownSimulator(config).run()
        b = PowerDownSimulator(config).run()
        assert a.energy.total_j == pytest.approx(b.energy.total_j)
        assert a.mean_active_ranks == b.mean_active_ranks


class TestBandwidthDrift:
    def test_emptying_node_survives_float_drift(self):
        """bandwidth_gbs is a +=/-= accumulator over VM rates; when a
        node fully empties it can drift to ~-1e-16, which used to raise
        "bandwidth must be non-negative" (a 32 GiB, 30-minute node at
        seed 14 reproduced it).
        The observation-point clamp must keep the run alive and every
        recorded bandwidth non-negative."""
        config = PowerDownSimConfig(
            geometry=DramGeometry(rank_bytes=1 * GIB),
            scheduler=SchedulerConfig(memory_bytes=24 * GIB,
                                      duration_s=1800.0),
            azure=AzureTraceConfig(num_vms=8, duration_s=1800.0),
            seed=14)
        result = ComparisonSimulator(config).run()
        assert result.dtl.mean_bandwidth_gbs >= 0.0
        assert all(record.bandwidth_gbs >= 0.0
                   for record in result.dtl.intervals)
