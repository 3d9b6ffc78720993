"""Trace-driven simulation of hotness-aware self-refresh (Figure 14).

The paper replays mixed CloudSuite post-cache traces against a custom
simulator at a boosted rate (>30 GB/s, Section 5.2) for allocated-memory
points of 208/224/240 GB (6 active ranks per channel) and 304 GB (8
ranks).  This module reproduces the experiment at a scaled-down geometry
(capacity ratios are preserved — see ``SelfRefreshSimConfig``) with a
*windowed* drive: instead of replaying ~10^9 individual accesses, each
50 ms step samples, per segment, whether the segment was touched (Poisson,
from the workload mix's per-segment rate vector) and feeds the distinct
touched segments through the real
:class:`~repro.core.self_refresh.HotnessSelfRefreshPolicy` via its batch
interface.  Access *bits* are sampled at the hardware's 0.5 ms window so
the CLOCK planner sees the same bit density it would in hardware.

The loop is the one driver of that *windowed contract* —
``on_batch(dsns, now_ns, bit_dsns)`` → ``end_window()`` →
``tick(now_ns)``, then ``migrated_bytes_total``, ``exit_penalty_total_ns``
and the ``events`` log read back — and the policy under replay is a
constructor seam: :mod:`repro.sim.comparison` installs the RAMZzz
baseline in the DTL policy's place, so both see identical inputs.

A crucial replay-boost effect is modelled explicitly: at >30 GB/s the
paper's 10 M-instruction coldness horizon is only ~0.3 ms of wall time,
so even "cold" resident data is touched occasionally.  The simulator
gives frozen segments a small constant touch rate
(:data:`FROZEN_TOUCH_RATE_HZ`); free segments are never touched.  This is
what makes high-utilisation configurations (240 GB) struggle to keep a
victim rank quiet, exactly as in the paper.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.checkpoint import SteppedExperiment
from repro.core.config import DEFAULT_WINDOW_NS, DtlConfig
from repro.core.controller import DtlController, VmHandle
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.seeded import SeededConfig
from repro.units import CACHELINE_BYTES, GIB, MIB, NS_PER_MS, ns_to_s
from repro.workloads.cloudsuite import PROFILES, TRACED_BENCHMARKS, TraceGenerator
from repro.workloads.drift import DriftConfig, DriftingWorkload

#: Touch rate of each shallow-frozen (cold-resident) segment under
#: replay boost.
FROZEN_TOUCH_RATE_HZ = 8.0


@dataclass(frozen=True)
class SelfRefreshSimConfig(SeededConfig):
    """Scaled self-refresh experiment.

    The default geometry is a 32 GiB device (4 channels x 8 ranks x
    1 GiB); the paper's 384 GB testbed maps onto it by preserving the
    allocated-capacity *ratios*: e.g. the paper's 208 GB of a 288 GB
    6-rank configuration becomes ``208/288 x 24 GiB``.

    Attributes:
        geometry: Scaled device geometry.
        allocated_bytes: Memory reserved by the workload VMs.
        workloads: Benchmark mix (one VM per entry).
        aggregate_bandwidth_gbs: Post-cache bandwidth of the whole mix,
            scaled from the paper's 30 GB/s by the capacity ratio.
        step_ns: Simulation step; also the profiling-threshold default.
        duration_s: Simulated wall time.
        seed: RNG seed.
    """

    geometry: DramGeometry = field(
        default_factory=lambda: DramGeometry(rank_bytes=1 * GIB))
    allocated_bytes: int = int(208 / 288 * 24) * GIB
    workloads: tuple[str, ...] = TRACED_BENCHMARKS[:6]
    aggregate_bandwidth_gbs: float = 2.5
    step_ns: int = 50 * NS_PER_MS
    duration_s: float = 90.0
    au_bytes: int = 512 * MIB
    group_granularity: int = 2
    #: Optional hot-set drift (None = the paper's stable-pattern regime).
    drift: "DriftConfig | None" = None
    #: Ablation: disable the CLOCK migration-table planner.
    sr_planning: bool = True
    #: "scatter" places allocated segments uniformly over the active ranks
    #: (the paper's simulator "randomly mixes" traces over the allocated
    #: memory); "pack" keeps the DTL allocator's most-utilised-first layout.
    placement: str = "scatter"
    #: Registered policy name driving victim selection / cold search /
    #: demotion depth (see repro.policies.available_policies()).
    policy: str = "paper"
    seed: int = 0


@dataclass
class StepRecord:
    """Per-step power sample."""

    time_s: float
    sr_ranks: int
    background_power: float
    migration_power: float

    @property
    def total_power(self) -> float:
        """Background plus migration power for the step (RSU)."""
        return self.background_power + self.migration_power


@dataclass
class SelfRefreshResult:
    """Outcome of one self-refresh simulation."""

    config: SelfRefreshSimConfig
    steps: list[StepRecord]
    baseline_power: float
    active_ranks_per_channel: int
    warmup_s: float
    stable_savings: float
    mean_savings: float
    sr_entries: int
    sr_exits: int
    migrated_bytes: int
    ever_stable: bool
    #: Cumulative SR wake penalty the accesses paid (policy counter view);
    #: the tournament's performance-overhead axis reads this.
    exit_penalty_ns: float = 0.0

    def savings_timeseries(self) -> tuple[np.ndarray, np.ndarray]:
        """(time_s, fractional savings) samples — the Figure 14 curves."""
        times = np.array([step.time_s for step in self.steps])
        savings = np.array([1.0 - step.total_power / self.baseline_power
                            for step in self.steps])
        return times, savings

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`;
        a run at one of the Figure 14 capacity points carries the
        paper's stable savings for that point."""
        from repro.sim.results import ExperimentRecord, flatten_selfrefresh
        point = capacity_point(self.config)
        return ExperimentRecord(
            "selfrefresh", flatten_selfrefresh(self),
            {"stable_savings": PAPER_STABLE_SAVINGS[point]} if point else {})


@dataclass
class SelfRefreshRunState:
    """Everything the step loop carries between steps.

    Picklable as one graph: the RNG is shared between the state and the
    drifters, and the controller graph keeps its internal sharing, so a
    ``pickle`` round-trip of the whole state resumes bit-identically.
    ``num_steps`` lives here (not on the config), so a restored run is
    extended by raising it before the next ``advance``.
    """

    rng: np.random.Generator
    controller: DtlController
    #: The policy under replay (shared with the controller graph when it
    #: is the controller's own).
    policy: Any
    hsns: np.ndarray
    generators: list[TraceGenerator]
    drifters: list[DriftingWorkload]
    dsns: np.ndarray
    step_s: float
    p_touch: np.ndarray
    p_bit: np.ndarray
    active_per_channel: int
    baseline_power: float
    active_power: float
    steps: list[StepRecord]
    num_steps: int
    migrated_before: int = 0
    step: int = 0


class SelfRefreshSimulator(SteppedExperiment):
    """Windowed trace-driven driver for a self-refresh policy.

    ``policy_of`` picks the policy under replay off the freshly built
    controller: by default its own hotness-aware policy; a baseline
    passes a picklable callable that builds itself on the controller's
    substrate instead.
    """

    name = "selfrefresh"

    def __init__(self, config: SelfRefreshSimConfig | None = None,
                 policy_of: Callable[[DtlController], Any]
                 = operator.attrgetter("self_refresh")):
        self.config = config or SelfRefreshSimConfig()
        self.policy_of = policy_of

    # -- setup -----------------------------------------------------------------

    def _build_controller(self) -> tuple[DtlController, list[VmHandle]]:
        config = self.config
        controller = DtlController(DtlConfig(
            geometry=config.geometry,
            au_bytes=config.au_bytes,
            enable_power_down=True,
            enable_self_refresh=True,
            group_granularity=config.group_granularity,
            profiling_threshold_ns=config.step_ns,
            sr_victim_granularity=config.group_granularity,
            sr_planning=config.sr_planning,
            policy=config.policy))
        total_aus = config.allocated_bytes // config.au_bytes
        if total_aus < len(config.workloads):
            raise ValueError("allocated_bytes too small for the mix")
        # Distribute AUs as evenly as possible so the total matches the
        # experiment's capacity point exactly.
        base_aus, extra = divmod(total_aus, len(config.workloads))
        handles = []
        for index in range(len(config.workloads)):
            aus = base_aus + (1 if index < extra else 0)
            handles.append(controller.allocate_vm(0, aus * config.au_bytes))
        # Consolidate: the rank-level power-down policy decides how many
        # rank groups stay active for this allocation (Section 6.3 runs SR
        # *after* power-down).
        assert controller.power_down is not None
        controller.power_down.maybe_power_down(0.0)
        if config.placement == "scatter":
            self._scatter(controller)
        elif config.placement != "pack":
            raise ValueError(f"unknown placement {config.placement!r}")
        return controller, handles

    def _scatter(self, controller: DtlController) -> None:
        """Randomly redistribute allocated segments over the active ranks.

        Mirrors the paper's methodology: the simulator "randomly mixes the
        post-cache traces with allocated memory" rather than using the
        packed layout a long-running DTL would converge to.  Channel
        balance is preserved (segments are shuffled within each channel).
        """
        config = self.config
        rng = np.random.default_rng(config.seed + 1)
        allocator = controller.allocator
        tables = controller.tables
        active = allocator.open_ranks()
        for channel in range(config.geometry.channels):
            channel_ranks = [rank_id for rank_id in active
                             if rank_id[0] == channel]
            live_dsns: list[int] = []
            slots: list[int] = []
            for rank_id in channel_ranks:
                live = allocator.allocated_in_rank(rank_id).tolist()
                live_dsns.extend(live)
                slots.extend(live)
                slots.extend(allocator.free_dsns_in_rank(rank_id).tolist())
            chosen = rng.choice(len(slots), size=len(live_dsns),
                                replace=False)
            new_dsns = [slots[index] for index in chosen]
            hsns = tables.hsns_of_dsns(live_dsns).tolist()
            # Two-phase remap through a shadow space to avoid collisions.
            for hsn in hsns:
                tables.unmap_segment(hsn)
            for rank_id in channel_ranks:
                allocator.free(allocator.allocated_in_rank(rank_id))
            # One bulk reservation: a ring-buffer free queue closes a gap
            # in O(queue), once per rank here instead of once per slot.
            allocator.reserve_batch(new_dsns)
            for hsn, dsn in zip(hsns, new_dsns):
                tables.map_segment(hsn, dsn)

    def _build_workloads(self, controller: DtlController,
                         handles: list[VmHandle],
                         rng: np.random.Generator,
                         ) -> tuple[np.ndarray, list[TraceGenerator]]:
        """Instantiate one generator per VM and the covered HSN list."""
        config = self.config
        layout = controller.host_layout
        segments_per_au = layout.segments_per_au
        hsns: list[int] = []
        generators: list[TraceGenerator] = []
        for handle, workload in zip(handles, config.workloads):
            generator = TraceGenerator(PROFILES[workload],
                                       footprint_bytes=handle.reserved_bytes,
                                       seed=rng)
            generators.append(generator)
            for index in range(generator.num_segments):
                au_id = handle.au_ids[index // segments_per_au]
                au_offset = index % segments_per_au
                hsns.append(layout.pack_hsn(handle.host_id, au_id, au_offset))
        return np.asarray(hsns, dtype=np.int64), generators

    def _touch_probabilities(self, generators: list[TraceGenerator],
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Per-VM-segment chance of a touch within one step, and within
        one access-bit window, under the replay boost."""
        config = self.config
        total_access_rate = (config.aggregate_bandwidth_gbs * 1e9
                             / CACHELINE_BYTES)
        per_vm_rate = total_access_rate / len(generators)
        rates: list[np.ndarray] = []
        for generator in generators:
            seg_rates = generator.segment_access_rates() * per_vm_rate
            # Shallow-frozen segments: at the boosted replay rate, even
            # nominally cold data is touched occasionally; only the
            # deep-cold tier stays quiet.
            seg_rates[generator.shallow_frozen_segments] = FROZEN_TOUCH_RATE_HZ
            seg_rates[generator.deep_cold_segments] = 0.0
            rates.append(seg_rates)
        rates_hz = np.concatenate(rates)
        return (1.0 - np.exp(-rates_hz * ns_to_s(config.step_ns)),
                1.0 - np.exp(-rates_hz * ns_to_s(DEFAULT_WINDOW_NS)))

    # -- run -------------------------------------------------------------------

    def begin(self) -> SelfRefreshRunState:
        """Build the controller, workloads, and rate vectors; step 0 state."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        controller, handles = self._build_controller()
        policy = self.policy_of(controller)
        device = controller.device
        power_model = device.power_model

        hsns, generators = self._build_workloads(controller, handles, rng)
        p_touch, p_bit = self._touch_probabilities(generators)
        drifters: list[DriftingWorkload] = []
        if config.drift is not None:
            drifters = [DriftingWorkload.wrap(generator, config.drift, rng)
                        for generator in generators]
        step_s = ns_to_s(config.step_ns)

        active_per_channel = device.standby_ranks_per_channel(0)
        baseline_counts = device.state_counts()
        baseline_power = (power_model.background_power(baseline_counts)
                          + power_model.active_power(
                              config.aggregate_bandwidth_gbs))
        active_power = power_model.active_power(config.aggregate_bandwidth_gbs)
        return SelfRefreshRunState(
            rng=rng, controller=controller, policy=policy, hsns=hsns,
            generators=generators, drifters=drifters,
            dsns=controller.tables.walk_batch(hsns), step_s=step_s,
            p_touch=p_touch, p_bit=p_bit,
            active_per_channel=active_per_channel,
            baseline_power=baseline_power, active_power=active_power,
            steps=[], num_steps=int(config.duration_s / step_s))

    def advance(self, state: SelfRefreshRunState) -> bool:
        """Simulate one step if any remain; True while more remain after."""
        if state.step >= state.num_steps:
            return False
        config = self.config
        controller = state.controller
        policy = state.policy
        device = controller.device
        power_model = device.power_model

        step = state.step
        now_ns = round((step + 1) * config.step_ns)
        if state.drifters:
            drifted = sum(d.advance_to(ns_to_s(now_ns))
                          for d in state.drifters)
            if drifted:
                state.p_touch, state.p_bit = self._touch_probabilities(
                    state.generators)
        touched_mask = state.rng.random(len(state.dsns)) < state.p_touch
        bit_mask = touched_mask & (state.rng.random(len(state.dsns)) < (
            state.p_bit / np.maximum(state.p_touch, 1e-12)))
        policy.on_batch(state.dsns[touched_mask], now_ns,
                        bit_dsns=state.dsns[bit_mask])
        policy.end_window()
        policy.tick(now_ns)
        # Mappings move only with migrated bytes (an SR entry's swaps, a
        # baseline's epoch reorganisation): re-walk exactly then.
        migrated_now = policy.migrated_bytes_total
        step_migrated = migrated_now - state.migrated_before
        state.migrated_before = migrated_now
        if step_migrated:
            state.dsns = controller.tables.walk_batch(state.hsns)
        counts = device.state_counts()
        background = power_model.background_power(counts)
        migration_energy = (power_model.active_power_per_gbs
                            * step_migrated / 1e9)
        migration_power = migration_energy / state.step_s
        state.steps.append(StepRecord(
            time_s=step * state.step_s,
            sr_ranks=counts[PowerState.SELF_REFRESH],
            background_power=background + state.active_power,
            migration_power=migration_power))
        state.step += 1
        return state.step < state.num_steps

    def finish(self, state: SelfRefreshRunState) -> SelfRefreshResult:
        """Summarise a fully-advanced state into the experiment result."""
        return self._summarise(state.policy, state.steps,
                               state.baseline_power, state.active_per_channel)

    def _summarise(self, policy: Any, steps: list[StepRecord],
                   baseline_power: float,
                   active_per_channel: int) -> SelfRefreshResult:
        savings = np.array([1.0 - step.total_power / baseline_power
                            for step in steps])
        times = np.array([step.time_s for step in steps])
        # Stable phase: the trailing third of the run.
        tail = max(1, len(steps) // 3)
        stable = float(savings[-tail:].mean())
        mean = float(savings.mean())
        # Warmup: first time the savings reach 90 % of the stable level
        # (inf when the run never stabilises above zero).
        warmup_s = float("inf")
        ever_stable = stable > 0.01
        if ever_stable:
            threshold = 0.9 * stable
            reached = np.nonzero(savings >= threshold)[0]
            if len(reached):
                warmup_s = float(times[reached[0]])
        entries = sum(1 for event in policy.events if event.kind == "enter_sr")
        exits = sum(1 for event in policy.events if event.kind == "exit_sr")
        return SelfRefreshResult(
            config=self.config, steps=steps, baseline_power=baseline_power,
            active_ranks_per_channel=active_per_channel,
            warmup_s=warmup_s, stable_savings=stable, mean_savings=mean,
            sr_entries=entries, sr_exits=exits,
            migrated_bytes=policy.migrated_bytes_total,
            ever_stable=ever_stable,
            exit_penalty_ns=policy.exit_penalty_total_ns)


#: The paper's Figure 14 capacity points, as fractions of the 8-rank
#: capacity (their 384 GB testbed; 288 GB when 6 of 8 ranks are active).
PAPER_CAPACITY_POINTS = {
    "208gb": 208 / 384,
    "224gb": 224 / 384,
    "240gb": 240 / 384,
    "304gb": 304 / 384,
}


#: Figure 14's stable-phase savings per capacity point: a number where
#: the paper reports one, its verdict where self-refresh never settles.
PAPER_STABLE_SAVINGS = {"208gb": 0.203, "224gb": "mixed", "240gb": "fails",
                        "304gb": 0.149}


def _allocated_bytes(point: str, geometry: DramGeometry) -> int:
    allocated = int(PAPER_CAPACITY_POINTS[point] * geometry.total_bytes)
    return allocated - allocated % (512 * MIB)


def capacity_point(config: SelfRefreshSimConfig) -> str | None:
    """The Figure 14 point ``config`` allocates for (None: off-figure)."""
    for point in PAPER_CAPACITY_POINTS:
        if config.allocated_bytes == _allocated_bytes(point,
                                                      config.geometry):
            return point
    return None


def config_for_point(point: str, seed: int = 0,
                     workloads: tuple[str, ...] | None = None,
                     duration_s: float = 90.0) -> SelfRefreshSimConfig:
    """Build the scaled config for one Figure 14 capacity point."""
    if point not in PAPER_CAPACITY_POINTS:
        raise KeyError(f"unknown point {point!r}; "
                       f"choices: {sorted(PAPER_CAPACITY_POINTS)}")
    geometry = DramGeometry(rank_bytes=1 * GIB)
    allocated = _allocated_bytes(point, geometry)
    bandwidth = 30.0 * geometry.total_bytes / (384 * GIB)
    return SelfRefreshSimConfig(
        geometry=geometry,
        allocated_bytes=allocated,
        workloads=workloads or TRACED_BENCHMARKS[:6],
        aggregate_bandwidth_gbs=bandwidth,
        duration_s=duration_s,
        seed=seed)


__all__ = [
    "SelfRefreshSimConfig",
    "StepRecord",
    "SelfRefreshResult",
    "SelfRefreshRunState",
    "SelfRefreshSimulator",
    "PAPER_CAPACITY_POINTS",
    "PAPER_STABLE_SAVINGS",
    "capacity_point",
    "config_for_point",
]
