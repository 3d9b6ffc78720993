"""Head-to-head: DTL hotness-aware self-refresh vs the RAMZzz baseline.

Runs the same capacity point, workload mix, placement, and replay model
through both policies and reports stable savings, wakeups, and migration
traffic — quantifying what the DTL's allocation knowledge and quiet-timer
planning buy over epoch-based hot/cold separation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.baselines.ramzzz import RamzzzConfig, RamzzzPolicy
from repro.checkpoint import SteppedExperiment
from repro.core.controller import DtlController
from repro.sim.selfrefresh_sim import (SelfRefreshResult, SelfRefreshRunState,
                                       SelfRefreshSimConfig,
                                       SelfRefreshSimulator)


@dataclass
class ComparisonResult:
    """Both policies' outcomes on the same experiment."""

    dtl: SelfRefreshResult
    ramzzz: SelfRefreshResult
    ramzzz_demotions: int
    ramzzz_wakeups: int

    def advantage(self) -> float:
        """DTL's stable-savings edge (percentage points)."""
        return self.dtl.stable_savings - self.ramzzz.stable_savings

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`."""
        from repro.sim.results import ExperimentRecord, flatten_selfrefresh
        return ExperimentRecord(
            "ramzzz_comparison",
            {"advantage": self.advantage(),
             "ramzzz_demotions": self.ramzzz_demotions,
             "ramzzz_wakeups": self.ramzzz_wakeups,
             **{f"dtl_{key}": value for key, value in
                flatten_selfrefresh(self.dtl).items()},
             **{f"ramzzz_{key}": value for key, value in
                flatten_selfrefresh(self.ramzzz).items()}})


def install_ramzzz(controller: DtlController,
                   config: RamzzzConfig) -> RamzzzPolicy:
    """Put RAMZzz on ``controller``'s substrate in the DTL policy's place."""
    controller.self_refresh = None
    return RamzzzPolicy(controller.device, controller.allocator,
                        controller.tables, controller.translation, config)


@dataclass
class PolicyComparisonRunState:
    """Both policies' replays, advanced one step at a time: the DTL leg
    runs to completion first, then the RAMZzz leg.  The two simulators
    differ only in the policy they install, so their step loops draw the
    same random numbers and apply the same drift."""

    dtl_sim: SelfRefreshSimulator
    dtl_state: SelfRefreshRunState
    ramzzz_sim: SelfRefreshSimulator
    ramzzz_state: SelfRefreshRunState
    dtl_done: bool = False


class PolicyComparisonExperiment(SteppedExperiment):
    """Registry adapter: DTL-vs-RAMZzz head-to-head from one SR config."""

    name = "ramzzz_comparison"

    def __init__(self, config: SelfRefreshSimConfig | None = None,
                 ramzzz: RamzzzConfig | None = None):
        self.config = config or SelfRefreshSimConfig()
        self.ramzzz = ramzzz or RamzzzConfig(
            victim_granularity=self.config.group_granularity)

    def begin(self) -> PolicyComparisonRunState:
        """Open both legs on identical configurations."""
        dtl_sim = SelfRefreshSimulator(self.config)
        ramzzz_sim = SelfRefreshSimulator(
            self.config, functools.partial(install_ramzzz,
                                           config=self.ramzzz))
        return PolicyComparisonRunState(
            dtl_sim=dtl_sim, dtl_state=dtl_sim.begin(),
            ramzzz_sim=ramzzz_sim, ramzzz_state=ramzzz_sim.begin())

    def advance(self, state: PolicyComparisonRunState) -> bool:
        """One step of whichever leg is currently running."""
        if not state.dtl_done:
            if not state.dtl_sim.advance(state.dtl_state):
                state.dtl_done = True
            return True  # the RAMZzz leg still has work
        return state.ramzzz_sim.advance(state.ramzzz_state)

    def finish(self, state: PolicyComparisonRunState) -> ComparisonResult:
        """Pair both fully-advanced legs into the comparison result."""
        policy = state.ramzzz_state.policy
        return ComparisonResult(
            dtl=state.dtl_sim.finish(state.dtl_state),
            ramzzz=state.ramzzz_sim.finish(state.ramzzz_state),
            ramzzz_demotions=policy.demotions,
            ramzzz_wakeups=policy.wakeups)


def compare_policies(config: SelfRefreshSimConfig,
                     ramzzz: RamzzzConfig | None = None) -> ComparisonResult:
    """Run both policies on identical inputs."""
    return PolicyComparisonExperiment(config, ramzzz).run()


__all__ = ["ComparisonResult", "install_ramzzz", "PolicyComparisonRunState",
           "PolicyComparisonExperiment", "compare_policies"]
