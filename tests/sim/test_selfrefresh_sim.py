"""Tests for the trace-driven self-refresh simulator (Figure 14)."""

import numpy as np
import pytest

from repro.dram.geometry import DramGeometry
from repro.sim.selfrefresh_sim import (PAPER_CAPACITY_POINTS,
                                       SelfRefreshSimConfig,
                                       SelfRefreshSimulator, config_for_point)
from repro.units import GIB, MIB


def small_config(**overrides):
    defaults = dict(
        geometry=DramGeometry(channels=2, ranks_per_channel=4,
                              rank_bytes=128 * MIB),
        allocated_bytes=544 * MIB,
        workloads=("data-caching", "media-streaming"),
        aggregate_bandwidth_gbs=0.3,
        duration_s=8.0,
        au_bytes=32 * MIB,
        group_granularity=1,
        seed=0)
    defaults.update(overrides)
    return SelfRefreshSimConfig(**defaults)


class TestConfigPoints:
    def test_known_points(self):
        assert set(PAPER_CAPACITY_POINTS) == {"208gb", "224gb", "240gb",
                                              "304gb"}

    def test_unknown_point_rejected(self):
        with pytest.raises(KeyError):
            config_for_point("999gb")

    def test_scaled_capacity_ratio(self):
        config = config_for_point("208gb")
        ratio = config.allocated_bytes / config.geometry.total_bytes
        assert ratio == pytest.approx(208 / 384, abs=0.02)

    def test_bandwidth_scaled(self):
        config = config_for_point("208gb")
        assert config.aggregate_bandwidth_gbs == pytest.approx(
            30.0 * config.geometry.total_bytes / (384 * GIB))


class TestSmallRun:
    @pytest.fixture(scope="class")
    def result(self):
        return SelfRefreshSimulator(small_config()).run()

    def test_runs_and_records_steps(self, result):
        assert len(result.steps) == int(8.0 / 0.05)

    def test_savings_bounded(self, result):
        times, savings = result.savings_timeseries()
        assert (savings <= 1.0).all()
        assert savings.min() > -0.5

    def test_baseline_power_positive(self, result):
        assert result.baseline_power > 0

    def test_self_refresh_engages(self, result):
        """With generous free space some rank reaches self-refresh."""
        assert result.sr_entries > 0
        assert max(step.sr_ranks for step in result.steps) > 0

    def test_savings_when_stable(self, result):
        if result.ever_stable:
            assert result.stable_savings > 0.0
            assert result.warmup_s < 8.0


class TestPlacement:
    def test_scatter_preserves_mappings(self):
        simulator = SelfRefreshSimulator(small_config())
        controller, handles = simulator._build_controller()
        layout = controller.host_layout
        for handle in handles:
            for au_id in handle.au_ids:
                for offset in range(layout.segments_per_au):
                    hsn = layout.pack_hsn(handle.host_id, au_id, offset)
                    dsn = controller.tables.walk(hsn).dsn
                    assert controller.tables.hsn_of_dsn(dsn) == hsn

    def test_scatter_balances_channels(self):
        simulator = SelfRefreshSimulator(small_config())
        controller, _ = simulator._build_controller()
        counts = [controller.allocator.channel_allocated(channel)
                  for channel in range(2)]
        assert counts[0] == counts[1]

    def test_scatter_spreads_over_ranks(self):
        simulator = SelfRefreshSimulator(small_config())
        controller, _ = simulator._build_controller()
        used_ranks = {rank_id
                      for rank_id in controller.allocator.open_ranks()
                      if controller.allocator.usage(rank_id).allocated > 0}
        assert len(used_ranks) >= 4  # not packed into a rank per channel

    def test_pack_placement_available(self):
        simulator = SelfRefreshSimulator(small_config(placement="pack"))
        controller, _ = simulator._build_controller()
        assert controller.reserved_bytes() == 544 * MIB

    def test_unknown_placement_rejected(self):
        simulator = SelfRefreshSimulator(small_config(placement="bogus"))
        with pytest.raises(ValueError):
            simulator._build_controller()


class TestAllocationExactness:
    def test_allocated_bytes_hit_target(self):
        simulator = SelfRefreshSimulator(small_config())
        controller, handles = simulator._build_controller()
        assert sum(handle.reserved_bytes for handle in handles) == 544 * MIB

    def test_too_small_allocation_rejected(self):
        config = small_config(allocated_bytes=32 * MIB,
                              workloads=("data-caching", "media-streaming",
                                         "web-search"))
        with pytest.raises(ValueError):
            SelfRefreshSimulator(config)._build_controller()


class TestDeterminism:
    def test_same_seed_reproduces(self):
        a = SelfRefreshSimulator(small_config(duration_s=3.0)).run()
        b = SelfRefreshSimulator(small_config(duration_s=3.0)).run()
        assert a.stable_savings == pytest.approx(b.stable_savings)
        assert a.sr_entries == b.sr_entries


class TestPlannerAblation:
    def test_planner_off_never_sleeps_under_load(self):
        import dataclasses
        config = dataclasses.replace(small_config(duration_s=3.0,
                                                  aggregate_bandwidth_gbs=1.0),
                                     sr_planning=False)
        result = SelfRefreshSimulator(config).run()
        # At this load every rank is touched within each 50 ms window, so
        # without planning nothing ever reaches self-refresh.
        assert result.sr_entries == 0
