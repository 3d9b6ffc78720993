"""Tests for the power-constant sensitivity analysis."""

import pytest

from repro.analysis.sensitivity import (recompute_savings, savings_range,
                                        sensitivity_grid)
from repro.dram.power import DramPowerModel
from repro.host.scheduler import SchedulerConfig
from repro.sim.powerdown_sim import (ComparisonSimulator, PowerDownSimConfig,
                                     energy_savings)
from repro.workloads.azure import AzureTraceConfig


@pytest.fixture(scope="module")
def results():
    config = PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=50, duration_s=3600.0),
        scheduler=SchedulerConfig(duration_s=3600.0), seed=4)
    result = ComparisonSimulator(config).run()
    return result.baseline, result.dtl


class TestRecompute:
    def test_reference_constants_match_simulation(self, results):
        """Re-evaluating at the calibrated constants reproduces the
        simulator's own savings figure."""
        baseline, dtl = results
        fields = DramPowerModel.__dataclass_fields__
        recomputed = recompute_savings(
            baseline, dtl,
            channel_fixed_overhead=fields["channel_fixed_overhead"].default,
            active_power_per_gbs=fields["active_power_per_gbs"].default)
        assert recomputed == pytest.approx(energy_savings(baseline, dtl),
                                           abs=0.01)

    def test_more_fixed_overhead_less_savings(self, results):
        baseline, dtl = results
        low = recompute_savings(baseline, dtl, 0.0, 0.25)
        high = recompute_savings(baseline, dtl, 4.8, 0.25)
        assert high < low

    def test_more_active_share_less_savings(self, results):
        baseline, dtl = results
        low = recompute_savings(baseline, dtl, 2.4, 0.05)
        high = recompute_savings(baseline, dtl, 2.4, 0.5)
        assert high < low


class TestGrid:
    def test_grid_shape(self, results):
        baseline, dtl = results
        points = sensitivity_grid(baseline, dtl)
        assert len(points) == 20

    def test_headline_is_robust(self, results):
        """Across a 2x band around every calibrated constant, the savings
        stay within a plausible range of the paper's 31.6 %."""
        baseline, dtl = results
        points = sensitivity_grid(baseline, dtl)
        low, high = savings_range(points)
        assert low > 0.15          # never collapses
        assert high < 0.60         # never explodes
        # The calibrated point sits inside the grid's hull.
        assert low <= energy_savings(baseline, dtl) <= high
