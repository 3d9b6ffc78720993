"""Putting it all together: total savings from both mechanisms (Figure 15).

Figure 15 reports, per allocated-capacity point, the total DRAM energy
saving over the all-8-ranks baseline when rank-level power-down and
hotness-aware self-refresh are applied together:

* power-down alone parks the unused rank-groups in MPSM (the paper's
  20.2 % for one powered-down rank-group);
* where each channel's unallocated memory reaches half a rank-pair, the
  self-refresh mechanism adds its stable-phase savings on top
  (25.6-32.3 % combined);
* the 8-rank configuration cannot power down at all, so only self-refresh
  contributes (14.9 % at 304 GB).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.power import DramPowerModel, PowerState
from repro.sim.selfrefresh_sim import (SelfRefreshResult, SelfRefreshSimulator,
                                       capacity_point, config_for_point)


@dataclass
class CombinedSavings:
    """Energy-saving decomposition for one capacity point."""

    point: str
    active_ranks_per_channel: int
    powerdown_savings: float
    selfrefresh_additional: float
    total_savings: float
    sr_result: SelfRefreshResult

    def to_record(self):
        """The ``fig15_<point>`` record; the paper's Figure 15 values
        are for the points that keep six ranks per channel active."""
        from repro.sim.results import ExperimentRecord
        paper = ({"powerdown": 0.202, "total": "25.6-32.3% (6-rank)"}
                 if self.active_ranks_per_channel == 6 else {})
        return ExperimentRecord(
            f"fig15_{self.point}",
            {"powerdown": self.powerdown_savings,
             "selfrefresh_additional": self.selfrefresh_additional,
             "total": self.total_savings}, paper)

    def row(self) -> str:
        """One formatted Figure 15 row."""
        return (f"{self.point:>7s}  active={self.active_ranks_per_channel}/ch  "
                f"power-down={100 * self.powerdown_savings:5.1f}%  "
                f"+self-refresh={100 * self.selfrefresh_additional:5.1f}%  "
                f"total={100 * self.total_savings:5.1f}%")


def _mean_power(result: SelfRefreshResult) -> float:
    """Mean total power over the stable (trailing-third) phase."""
    steps = result.steps
    tail = max(1, len(steps) // 3)
    return sum(step.total_power for step in steps[-tail:]) / tail


def combine(result: SelfRefreshResult) -> CombinedSavings:
    """Fold the power-down savings into one capacity point's SR run.

    The 8-rank baseline has every rank in standby; the power-down
    configuration parks the idle rank-groups in MPSM; the combined
    configuration additionally holds the SR simulation's stable-phase rank
    states.
    """
    config = result.config
    geometry = config.geometry
    power_model = DramPowerModel(geometry=geometry)
    active = result.active_ranks_per_channel
    idle = geometry.ranks_per_channel - active
    bandwidth_power = power_model.active_power(
        config.aggregate_bandwidth_gbs)

    baseline_8rank = power_model.background_power(
        {PowerState.STANDBY: geometry.total_ranks}) + bandwidth_power
    counts_powerdown = {
        PowerState.STANDBY: active * geometry.channels,
        PowerState.MPSM: idle * geometry.channels,
    }
    powerdown_power = power_model.background_power(
        counts_powerdown) + bandwidth_power
    combined_power = _mean_power(result)

    powerdown_savings = 1.0 - powerdown_power / baseline_8rank
    total_savings = 1.0 - combined_power / baseline_8rank
    return CombinedSavings(
        point=capacity_point(config) or "custom",
        active_ranks_per_channel=active,
        powerdown_savings=powerdown_savings,
        selfrefresh_additional=max(0.0, total_savings - powerdown_savings),
        total_savings=total_savings,
        sr_result=result)


def combined_savings(point: str, seed: int = 0,
                     duration_s: float = 60.0) -> CombinedSavings:
    """Run the SR simulation for ``point`` and :func:`combine` it."""
    config = config_for_point(point, seed=seed, duration_s=duration_s)
    return combine(SelfRefreshSimulator(config).run())


def figure15_summary(points: tuple[str, ...] = ("208gb", "224gb", "240gb",
                                                "304gb"),
                     seed: int = 0,
                     duration_s: float = 60.0) -> list[CombinedSavings]:
    """Compute the full Figure 15 table."""
    return [combined_savings(point, seed=seed, duration_s=duration_s)
            for point in points]


__all__ = ["CombinedSavings", "combine", "combined_savings",
           "figure15_summary"]
