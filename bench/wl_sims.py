"""The two schedule-level simulator workloads.

* ``vm_churn``  — ``powerdown_comparison`` (baseline leg, then DTL leg) on
  the ``fig12 --quick`` one-hour schedule, stepped through
  ``begin/advance/finish``.  Control plane only: no ``access_batch``.
* ``sr_replay`` — ``SelfRefreshSimulator`` at the 208 GB and 304 GB
  Figure 14 points, driven through ``on_batch``.

A repetition consumes a run state, so every repetition after the first
builds a fresh one before its clock starts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.checkpoint import restore, snapshot
from repro.core.checker import ConsistencyChecker
from repro.host.scheduler import SchedulerConfig
from repro.sim.powerdown_sim import (ComparisonRunState, ComparisonSimulator,
                                     PowerDownSimConfig, PowerDownSimulator)
from repro.sim.selfrefresh_sim import SelfRefreshSimulator, config_for_point
from repro.workloads.azure import AzureTraceConfig, generate_vm_trace
from repro.workloads.cloudsuite import PROFILES

from common import Rep, Workload
from instrument import (counter_layer_counts, group_parks,
                        instrument_controller)

#: The VM population is the documented ``fig12 --quick`` one (trace seed
#: 0) on every run.  Consolidation cost is chaotic in the population —
#: ten population seeds gave 1.4-4.1 s of host time and 15.6-40.7 %
#: savings — so a seeded population could never be held to a 10 % bound.
#: ``--seed`` re-draws each VM's CloudSuite workload (its bandwidth, so
#: the active-power share of the energy result) and leaves the
#: allocation schedule alone.
POPULATION_SEED = 0

#: ``sr_replay`` is pinned the same way, and entirely: the simulator draws
#: placement, hot sets and touches from one seed, and both its cost and
#: how soon it reaches the stable phase are chaotic in it (ten seeds:
#: 2.6-4.7 s for the 304 GB point, and one not yet stable after 20 s).
#: Seed 0 is the configuration the paper-anchored numbers are quoted for.
REPLAY_SEED = 0

#: Paper Figure 14 stable savings (percent) at the two replayed points.
PAPER_SAVINGS_PCT = {"208gb": 20.3, "304gb": 14.9}


def _audit(controller) -> list[str]:
    tolerance = len(controller.migration.tracked_requests())
    return ConsistencyChecker(controller).audit(
        balance_tolerance=tolerance).violations[:5]


def _drive(advance, state, latencies: list[float]) -> None:
    """Advance ``state`` to completion, timing every step."""
    more = True
    while more:
        start = perf_counter()
        more = advance(state)
        latencies.append((perf_counter() - start) * 1e3)


def _controller_counts(controllers) -> dict[str, float]:
    """Per-layer counts from the public stats of finished controllers."""
    totals: dict[str, float] = {}
    for controller in controllers:
        for name, value in controller.telemetry_snapshot().counters.items():
            totals[name] = totals.get(name, 0) + value
    counts = counter_layer_counts(totals,
                                  controllers[0].geometry.segment_bytes)
    counts["power_down.transitions"] = sum(map(group_parks, controllers))
    return counts


# -- vm_churn ----------------------------------------------------------------


@dataclass
class ChurnSystem:
    simulator: ComparisonSimulator
    specs: list
    generate_s: float
    state: ComparisonRunState | None = None


class VmChurn(Workload):
    name = "vm_churn"
    work_unit = "simulated seconds"
    model_unit = "%"  # simulated DRAM energy, DTL leg over baseline leg

    def setup(self) -> ChurnSystem:
        duration = 900.0 if self.smoke else 3600.0
        config = PowerDownSimConfig(
            azure=AzureTraceConfig(num_vms=20 if self.smoke else 80,
                                   duration_s=duration),
            scheduler=SchedulerConfig(duration_s=duration),
            seed=POPULATION_SEED)
        start = perf_counter()
        rng = np.random.default_rng(self.seed)
        names = sorted(PROFILES)
        specs = [dataclasses.replace(spec, workload=str(rng.choice(names)))
                 for spec in generate_vm_trace(config.azure,
                                               seed=POPULATION_SEED)]
        system = ChurnSystem(ComparisonSimulator(config), specs,
                             perf_counter() - start)
        self.prepare(system)
        return system

    def prepare(self, system: ChurnSystem, tracer=None) -> None:
        if system.state is not None:
            return
        # ComparisonSimulator.begin() with this run's specs in place of
        # a trace drawn from config.seed.
        config = system.simulator.config
        baseline = PowerDownSimulator(
            dataclasses.replace(config, enable_power_down=False))
        dtl = PowerDownSimulator(config)
        system.state = ComparisonRunState(
            baseline_sim=baseline,
            baseline_state=baseline.begin(system.specs),
            dtl_sim=dtl, dtl_state=dtl.begin(system.specs))
        if tracer is not None:
            self.instrument(system, tracer)

    def measure(self, system: ChurnSystem, collect: bool, tracer) -> Rep:
        state, system.state = system.state, None
        latencies: list[float] = []
        _drive(system.simulator.advance, state, latencies)
        start = perf_counter()
        result = system.simulator.finish(state)
        wall = sum(latencies) / 1e3 + perf_counter() - start
        rep = Rep(wall_s=wall,
                  work=2 * system.simulator.config.scheduler.duration_s,
                  ops=len(latencies), latencies_ms=latencies,
                  model_cost=100.0 * (1.0 - result.energy_savings))
        if collect:
            legs = (state.baseline_state.controller,
                    state.dtl_state.controller)
            rep.counts = {"controllers": legs,
                          "savings_pct": 100.0 * result.energy_savings}
        return rep

    def instrument(self, system: ChurnSystem, tracer) -> None:
        state = system.state
        for sim, leg in ((state.baseline_sim, state.baseline_state),
                         (state.dtl_sim, state.dtl_state)):
            tracer.shadow(sim, "advance", "sim.advance")
            tracer.shadow(leg.energy, "add_interval", "dram.interval",
                          light=True)
            instrument_controller(tracer, leg.controller)

    def check(self, system: ChurnSystem, twin: ChurnSystem,
              first: Rep) -> list[str]:
        return [line for controller in first.counts["controllers"]
                for line in _audit(controller)]

    def layer_counts(self, system: ChurnSystem,
                     first: Rep) -> dict[str, float]:
        counts = _controller_counts(first.counts["controllers"])
        counts["sim.energy_savings_pct"] = first.counts["savings_pct"]
        counts["workloads.generate_s"] = system.generate_s
        return counts

    def checkpoint_probe(self, twin: ChurnSystem):
        """Snapshot/restore cost of a mid-run state (``repro.checkpoint``)."""
        state = twin.state
        steps = 0
        while steps < 18 and twin.simulator.advance(state):
            steps += 1  # past the baseline leg, into the DTL leg
        start = perf_counter()
        checkpoint = snapshot(self.name, steps, state)
        saved = perf_counter()
        restore(checkpoint)
        return {"checkpoint.sim_snapshot_s": saved - start,
                "checkpoint.sim_restore_s": perf_counter() - saved,
                "checkpoint.sim_bytes": len(checkpoint.blob)}, []


# -- sr_replay ---------------------------------------------------------------


@dataclass
class ReplaySystem:
    simulators: dict[str, SelfRefreshSimulator]
    states: dict | None = None


class SrReplay(Workload):
    name = "sr_replay"
    work_unit = "simulated seconds"
    model_unit = "%"  # simulated DRAM power, mean of the two points' stable
    #                   phases over the all-standby baseline

    #: Simulated seconds per point.  The stable phase is reached by ~6.4 s
    #: and the reported saving is the same from 20 s up; 20 s keeps one
    #: repetition under 4 s of host time so three fit a run.
    duration_s = 20.0

    def setup(self) -> ReplaySystem:
        duration = 2.0 if self.smoke else self.duration_s
        system = ReplaySystem({
            point: SelfRefreshSimulator(config_for_point(
                point, seed=REPLAY_SEED, duration_s=duration))
            for point in PAPER_SAVINGS_PCT})
        self.prepare(system)
        return system

    def prepare(self, system: ReplaySystem, tracer=None) -> None:
        if system.states is not None:
            return
        system.states = {point: simulator.begin()
                         for point, simulator in system.simulators.items()}
        if tracer is not None:
            self._instrument_controllers(system, tracer)

    def measure(self, system: ReplaySystem, collect: bool, tracer) -> Rep:
        states, system.states = system.states, None
        latencies: list[float] = []
        finish_s = 0.0
        savings = {}
        for point, simulator in system.simulators.items():
            _drive(simulator.advance, states[point], latencies)
            start = perf_counter()
            result = simulator.finish(states[point])
            finish_s += perf_counter() - start
            savings[point] = 100.0 * result.stable_savings
        mean_savings = sum(savings.values()) / len(savings)
        rep = Rep(wall_s=sum(latencies) / 1e3 + finish_s,
                  work=sum(simulator.config.duration_s
                           for simulator in system.simulators.values()),
                  ops=len(latencies), latencies_ms=latencies,
                  model_cost=100.0 - mean_savings)
        if collect:
            rep.counts = {
                "controllers": tuple(state.controller
                                     for state in states.values()),
                "savings_pct": mean_savings,
                # The smoke run is too short to reach the stable phase.
                "paper_error_pp": 0.0 if self.smoke else max(
                    abs(savings[point] - paper)
                    for point, paper in PAPER_SAVINGS_PCT.items())}
        return rep

    def instrument(self, system: ReplaySystem, tracer) -> None:
        for simulator in system.simulators.values():
            tracer.shadow(simulator, "advance", "sim.advance")
        self._instrument_controllers(system, tracer)

    @staticmethod
    def _instrument_controllers(system: ReplaySystem, tracer) -> None:
        """The simulators outlive a repetition; their controllers do not."""
        for state in system.states.values():
            instrument_controller(tracer, state.controller)

    def check(self, system: ReplaySystem, twin: ReplaySystem,
              first: Rep) -> list[str]:
        return [line for controller in first.counts["controllers"]
                for line in _audit(controller)]

    def layer_counts(self, system: ReplaySystem,
                     first: Rep) -> dict[str, float]:
        counts = _controller_counts(first.counts["controllers"])
        counts["sim.energy_savings_pct"] = first.counts["savings_pct"]
        counts["sim.paper_error_pp"] = first.counts["paper_error_pp"]
        return counts
