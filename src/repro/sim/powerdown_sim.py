"""Six-hour VM-schedule simulation of rank-level power-down.

Reproduces the Section 6.2 methodology: an Azure-like VM trace is
scheduled onto one memory-pool node for six hours; every VM allocation/
deallocation flows through the DTL controller, which consolidates
segments and powers rank-groups up/down.  Power is integrated per
5-minute interval exactly as the paper does (Section 5.1):

* background power from each rank's power-state residency,
* active power proportional to the live VMs' aggregate bandwidth,
* a short migration-power pulse after deallocations (the paper's red
  line in Figure 12(a)), sized by the spare bandwidth available to the
  migration engine.

The baseline is the same schedule with power-down disabled (every rank in
standby), matching the paper's 8-rank baseline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.checkpoint import SteppedExperiment
from repro.core.config import DtlConfig
from repro.core.controller import DtlController, VmHandle
from repro.dram.geometry import DramGeometry
from repro.dram.power import EnergyAccumulator, PowerState
from repro.host.scheduler import FIVE_MINUTES_S, SchedulerConfig, VmScheduler
from repro.host.vm import VmSpec
from repro.seeded import SeededConfig
from repro.sim.perf_model import (INTERLEAVING_OFF_PENALTY_CXL,
                                  PerformanceModel, TRANSLATION_OVERHEAD)
from repro.units import GIB, s_to_ns
from repro.workloads.azure import AzureTraceConfig, generate_vm_trace
from repro.workloads.cloudsuite import PROFILES

#: The paper's Figure 12-13 values for one full six-hour schedule; the
#: ``powerdown_comparison`` record states them, the fleet's seed
#: medians are held to them.
FIG12_13_PAPER = {"energy_savings": 0.316, "power_savings": 0.327,
                  "background_savings": 0.353,
                  "dtl_execution_time_factor": 1.016}


@dataclass(frozen=True)
class PowerDownSimConfig(SeededConfig):
    """Parameters of the schedule-level simulation.

    The default geometry is a 512 GiB device (4 channels x 8 ranks x
    16 GiB) of which the scheduler uses up to 384 GB — mirroring the
    paper's 1 TB-installed / 384 GB-used setup (Section 5.1).
    """

    geometry: DramGeometry = field(
        default_factory=lambda: DramGeometry(rank_bytes=16 * GIB))
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    azure: AzureTraceConfig = field(default_factory=AzureTraceConfig)
    enable_power_down: bool = True
    group_granularity: int = 2  # CKE pairs (Section 5.1)
    spare_migration_bandwidth_gbs: float = 18.0
    seed: int = 0


@dataclass
class IntervalRecord:
    """State of the device over one 5-minute interval."""

    time_s: float
    duration_s: float
    reserved_bytes: int
    live_vms: int
    active_ranks_per_channel: int
    background_power: float
    active_power: float
    migration_power: float
    bandwidth_gbs: float

    @property
    def total_power(self) -> float:
        """Total power over the interval (RSU)."""
        return self.background_power + self.active_power + self.migration_power


@dataclass
class PowerDownResult:
    """Everything one simulation run produced."""

    config: PowerDownSimConfig
    intervals: list[IntervalRecord]
    energy: EnergyAccumulator
    migrated_bytes: int
    migration_time_s: float
    power_transitions: int
    execution_time_factor: float
    mean_active_ranks: float
    #: Time-weighted means over the whole run, from running sums.
    mean_bandwidth_gbs: float = 0.0
    mean_reserved_bytes: float = 0.0
    telemetry: dict = field(default_factory=dict)
    window_snapshots: list[dict] = field(default_factory=list)

    @property
    def total_energy(self) -> float:
        """Total DRAM energy including the execution-time stretch."""
        return self.energy.total_j * self.execution_time_factor

    def power_timeseries(self) -> tuple[np.ndarray, np.ndarray]:
        """(time_s, total_power) samples for Figure 12(a)."""
        times = np.array([record.time_s for record in self.intervals])
        powers = np.array([record.total_power for record in self.intervals])
        return times, powers

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`."""
        from repro.sim.results import ExperimentRecord, flatten_powerdown
        return ExperimentRecord("powerdown", flatten_powerdown(self))


def energy_savings(baseline: PowerDownResult, dtl: PowerDownResult) -> float:
    """Fractional DRAM energy saving of ``dtl`` over ``baseline``."""
    return 1.0 - dtl.total_energy / baseline.total_energy


def power_savings(baseline: PowerDownResult, dtl: PowerDownResult) -> float:
    """Fractional DRAM *power* saving (no execution-time stretch)."""
    return 1.0 - dtl.energy.total_j / baseline.energy.total_j


def background_power_savings(baseline: PowerDownResult,
                             dtl: PowerDownResult) -> float:
    """Fractional background-power saving (Figure 13)."""
    return 1.0 - dtl.energy.background_j / baseline.energy.background_j


@dataclass
class PowerDownRunState:
    """Loop state of one schedule replay — one interval per advance.

    Picklable as a single graph (the controller keeps its internal
    sharing through the pickle memo), so a checkpoint taken between
    intervals resumes bit-identically.
    """

    controller: DtlController
    events: list
    event_index: int
    handles: dict[str, VmHandle]
    energy: EnergyAccumulator
    intervals: list[IntervalRecord]
    window_snapshots: list[dict]
    active_rank_samples: list[int]
    end_s: float
    time_s: float = 0.0
    bandwidth_gbs: float = 0.0
    migrated_bytes_total: int = 0
    migration_time_total: float = 0.0
    bandwidth_weighted: float = 0.0
    reserved_weighted: float = 0.0
    duration_total: float = 0.0
    #: Pending migration work spills into the interval it occurred in.
    pending_migration_bytes: float = 0.0


class PowerDownSimulator(SteppedExperiment):
    """Replays a VM schedule through the DTL controller."""

    name = "powerdown"

    def __init__(self, config: PowerDownSimConfig | None = None):
        self.config = config or PowerDownSimConfig()
        self.perf_model = PerformanceModel()

    def _make_controller(self) -> DtlController:
        config = self.config
        return DtlController(DtlConfig(
            geometry=config.geometry,
            enable_power_down=config.enable_power_down,
            enable_self_refresh=False,
            group_granularity=config.group_granularity))

    def _vm_bandwidth_gbs(self, spec: VmSpec) -> float:
        profile = PROFILES[spec.workload]
        return profile.bandwidth_gbs(spec.vcpus)

    def begin(self, specs: list[VmSpec] | None = None) -> PowerDownRunState:
        """Schedule the trace and build the controller; interval-0 state."""
        config = self.config
        if specs is None:
            specs = generate_vm_trace(config.azure, seed=config.seed)
        schedule = VmScheduler(config.scheduler).run(specs)
        return PowerDownRunState(
            controller=self._make_controller(),
            events=list(schedule.events), event_index=0, handles={},
            energy=EnergyAccumulator(), intervals=[], window_snapshots=[],
            active_rank_samples=[],
            end_s=config.scheduler.duration_s)

    def _apply_events_until(self, state: PowerDownRunState,
                            limit_s: float) -> None:
        config = self.config
        controller = state.controller
        while state.event_index < len(state.events) and \
                state.events[state.event_index].time_s <= limit_s:
            event = state.events[state.event_index]
            state.event_index += 1
            spec = event.spec
            if event.kind == "start":
                state.handles[spec.vm_name] = controller.allocate_vm(
                    0, spec.memory_bytes, now_ns=s_to_ns(event.time_s))
                state.bandwidth_gbs += self._vm_bandwidth_gbs(spec)
            else:
                handle = state.handles.pop(spec.vm_name)
                state.bandwidth_gbs -= self._vm_bandwidth_gbs(spec)
                transitions = controller.deallocate_vm(
                    handle, now_ns=s_to_ns(event.time_s))
                moved = sum(t.migrated_bytes for t in transitions)
                state.migrated_bytes_total += moved
                state.pending_migration_bytes += moved
                if moved:
                    state.migration_time_total += moved / (
                        config.spare_migration_bandwidth_gbs * 1e9)

    def advance(self, state: PowerDownRunState) -> bool:
        """Simulate one interval if any remain; True while more remain."""
        if state.time_s >= state.end_s:
            return False
        config = self.config
        controller = state.controller
        device = controller.device
        power_model = device.power_model

        time_s = state.time_s
        interval_end = min(time_s + FIVE_MINUTES_S, state.end_s)
        self._apply_events_until(state, interval_end)
        duration = interval_end - time_s
        counts = device.state_counts()
        background = power_model.background_power(counts)
        # bandwidth_gbs is a +=/-= accumulator over VM rates, so on
        # a node that empties it can drift to ~-1e-16; clamp only
        # at the observation point (the accumulator itself must
        # stay untouched to keep non-drifted schedules bit-stable).
        observed_gbs = max(0.0, state.bandwidth_gbs)
        active = power_model.active_power(observed_gbs)
        # Migration pulse: the pending bytes move at the spare
        # bandwidth; the pulse is much shorter than the interval, so we
        # spread its energy over the interval (same integral).
        migration_time = state.pending_migration_bytes / (
            config.spare_migration_bandwidth_gbs * 1e9)
        migration_energy = (power_model.active_power(
            config.spare_migration_bandwidth_gbs) * migration_time)
        migration_power = migration_energy / duration if duration else 0.0
        state.pending_migration_bytes = 0.0
        state.energy.add_interval(duration, background, active,
                                  migration_power)
        if config.enable_power_down and controller.power_down is not None:
            active_ranks = controller.power_down.active_ranks_per_channel()
        else:
            active_ranks = config.geometry.ranks_per_channel
        state.active_rank_samples.append(active_ranks)
        reserved = controller.reserved_bytes()
        state.bandwidth_weighted += observed_gbs * duration
        state.reserved_weighted += reserved * duration
        state.duration_total += duration
        state.intervals.append(IntervalRecord(
            time_s=time_s, duration_s=duration,
            reserved_bytes=reserved,
            live_vms=len(state.handles),
            active_ranks_per_channel=active_ranks,
            background_power=background, active_power=active,
            migration_power=migration_power,
            bandwidth_gbs=observed_gbs))
        controller.end_window()
        state.window_snapshots.append({
            "time_s": interval_end,
            "counters": controller.metrics.counter_values()})
        state.time_s = interval_end
        return state.time_s < state.end_s

    def finish(self, state: PowerDownRunState) -> PowerDownResult:
        """Summarise a fully-advanced state into the experiment result."""
        config = self.config
        controller = state.controller
        mean_active = float(np.mean(state.active_rank_samples))
        execution_factor = self._execution_time_factor(mean_active)
        transitions = 0
        if controller.power_down is not None:
            transitions = len(controller.power_down.transitions)
        telemetry = controller.telemetry_snapshot(
            now_ns=s_to_ns(state.end_s)).to_dict()
        return PowerDownResult(
            config=config, intervals=state.intervals, energy=state.energy,
            migrated_bytes=state.migrated_bytes_total,
            migration_time_s=state.migration_time_total,
            power_transitions=transitions,
            execution_time_factor=execution_factor,
            mean_active_ranks=mean_active,
            mean_bandwidth_gbs=(state.bandwidth_weighted
                                / state.duration_total
                                if state.duration_total else 0.0),
            mean_reserved_bytes=(state.reserved_weighted
                                 / state.duration_total
                                 if state.duration_total else 0.0),
            telemetry=telemetry,
            window_snapshots=state.window_snapshots)

    def _execution_time_factor(self, mean_active_ranks: float) -> float:
        """Section 5.1 post-processing of the execution time.

        The DTL run pays for (i) disabled rank interleaving, (ii) address
        translation, and (iii) reduced active-rank parallelism; the
        baseline pays nothing.
        """
        if not self.config.enable_power_down:
            return 1.0
        low = int(np.floor(mean_active_ranks))
        high = int(np.ceil(mean_active_ranks))
        low = max(1, min(low, self.config.geometry.ranks_per_channel))
        high = max(1, min(high, self.config.geometry.ranks_per_channel))
        slow_low = self.perf_model.mean_rank_sweep_slowdown(low)
        slow_high = self.perf_model.mean_rank_sweep_slowdown(high)
        if high == low:
            rank_penalty = slow_low
        else:
            frac = mean_active_ranks - low
            rank_penalty = slow_low + (slow_high - slow_low) * frac
        return (1.0 + INTERLEAVING_OFF_PENALTY_CXL + TRANSLATION_OVERHEAD
                + rank_penalty)


@dataclass
class PowerDownComparisonResult:
    """Paired baseline/DTL runs on the same VM trace."""

    config: PowerDownSimConfig
    baseline: PowerDownResult
    dtl: PowerDownResult

    @property
    def energy_savings(self) -> float:
        """Fractional DRAM energy saving of the DTL run."""
        return energy_savings(self.baseline, self.dtl)

    @property
    def power_savings(self) -> float:
        """Fractional DRAM power saving (no execution-time stretch)."""
        return power_savings(self.baseline, self.dtl)

    @property
    def background_savings(self) -> float:
        """Fractional background-power saving (Figure 13)."""
        return background_power_savings(self.baseline, self.dtl)

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`
        carrying the paper's Figure 12-13 values (full 6 h schedule)."""
        from repro.sim.results import ExperimentRecord, flatten_powerdown
        return ExperimentRecord(
            "powerdown_comparison",
            {"energy_savings": self.energy_savings,
             "power_savings": self.power_savings,
             "background_savings": self.background_savings,
             "baseline_total_energy_rsu_s": self.baseline.total_energy,
             **{f"dtl_{key}": value
                for key, value in flatten_powerdown(self.dtl).items()}},
            dict(FIG12_13_PAPER))


@dataclass
class ComparisonRunState:
    """Both legs of a baseline-vs-DTL pair, advanced one interval at a
    time: the baseline leg runs to completion first (matching the serial
    order of :meth:`ComparisonSimulator.run`), then the DTL leg."""

    baseline_sim: PowerDownSimulator
    baseline_state: PowerDownRunState
    dtl_sim: PowerDownSimulator
    dtl_state: PowerDownRunState
    baseline_done: bool = False


class ComparisonSimulator(SteppedExperiment):
    """Baseline-vs-DTL pair on one VM trace — the fleet's unit of work.

    The baseline config is derived with :func:`dataclasses.replace`, so
    any field added to :class:`PowerDownSimConfig` automatically carries
    over instead of silently reverting to its default.
    """

    name = "powerdown_comparison"

    def __init__(self, config: PowerDownSimConfig | None = None):
        self.config = config or PowerDownSimConfig()

    def begin(self) -> ComparisonRunState:
        """Generate the shared VM trace and open both legs."""
        config = self.config
        specs = generate_vm_trace(config.azure, seed=config.seed)
        baseline_config = dataclasses.replace(config,
                                              enable_power_down=False)
        baseline_sim = PowerDownSimulator(baseline_config)
        dtl_sim = PowerDownSimulator(config)
        return ComparisonRunState(
            baseline_sim=baseline_sim,
            baseline_state=baseline_sim.begin(specs),
            dtl_sim=dtl_sim, dtl_state=dtl_sim.begin(specs))

    def advance(self, state: ComparisonRunState) -> bool:
        """One interval of whichever leg is currently running."""
        if not state.baseline_done:
            if not state.baseline_sim.advance(state.baseline_state):
                state.baseline_done = True
            return True  # the DTL leg still has work
        return state.dtl_sim.advance(state.dtl_state)

    def finish(self, state: ComparisonRunState) -> PowerDownComparisonResult:
        """Pair both fully-advanced legs into the comparison result."""
        return PowerDownComparisonResult(
            config=self.config,
            baseline=state.baseline_sim.finish(state.baseline_state),
            dtl=state.dtl_sim.finish(state.dtl_state))


__all__ = [
    "FIG12_13_PAPER",
    "PowerDownSimConfig",
    "IntervalRecord",
    "PowerDownResult",
    "PowerDownComparisonResult",
    "PowerDownRunState",
    "PowerDownSimulator",
    "ComparisonRunState",
    "ComparisonSimulator",
    "energy_savings",
    "power_savings",
    "background_power_savings",
]
