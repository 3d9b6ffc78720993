"""Trace-driven rank sweep: Figure 2 from first principles.

The analytical :mod:`~repro.sim.perf_model` assumes Poisson arrivals over
identical banks.  This module replays a real (synthetic) post-cache trace
against the bank-level substrate instead: for each rank count it measures

* the per-bank load *imbalance* (hot banks queue more than the mean),
* the row-buffer outcome mix (hits are cheaper to serve),

and derives the execution-time delta with the same CPI decomposition.
It is the cross-check that the paper's "low returns from rank-level
parallelism" claim does not hinge on the analytical model's uniformity
assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checkpoint import FanOut, FanOutState
from repro.dram.banks import AddressDecoder, BankState
from repro.dram.geometry import DramGeometry
from repro.dram.timing import (CXL_MEMORY_LATENCY_NS, DDR4_2933,
                               NATIVE_DRAM_LATENCY_NS)
from repro.exec import ExecConfig, TaskOutcome, TaskSpec, run_tasks
from repro.seeded import SeededConfig
from repro.sim.perf_model import (BANKS_PER_RANK, CHANNELS, RANK_BYTES,
                                  RANKS_PER_CHANNEL, access_rate_per_channel,
                                  bank_wait_ns, time_per_ki_ns)
from repro.workloads.cloudsuite import PROFILES, TraceGenerator, WorkloadProfile
from repro.workloads.trace import Trace


@dataclass
class RankSweepPoint:
    """Measurements for one rank count."""

    active_ranks: int
    row_hit_ratio: float
    mean_service_ns: float
    mean_queue_ns: float
    time_per_ki_ns: float


class TraceRankSweep:
    """Replay one workload's trace at several rank counts of the
    Figure 2 testbed (:mod:`repro.sim.perf_model`)."""

    def __init__(self, profile: WorkloadProfile,
                 num_accesses: int = 60_000,
                 seed: int = 0):
        self.profile = profile
        # The working set spans the full 8-rank configuration; shrinking
        # the rank count folds the same footprint onto fewer ranks.
        generator = TraceGenerator(
            profile,
            footprint_bytes=CHANNELS * RANK_BYTES * RANKS_PER_CHANNEL,
            seed=seed)
        self.trace: Trace = generator.generate(num_accesses)

    # -- measurement -------------------------------------------------------------

    def measure(self, active_ranks: int) -> RankSweepPoint:
        """Replay the trace with the footprint folded onto ``active_ranks``."""
        geometry = DramGeometry(
            channels=CHANNELS,
            ranks_per_channel=max(1, active_ranks),
            banks_per_rank=BANKS_PER_RANK,
            rank_bytes=RANK_BYTES)
        decoder = AddressDecoder(geometry, mapping="dtl")
        banks = BankState(geometry)
        # Fold the trace's footprint into the shrunken capacity, exactly
        # what happens when fewer ranks back the same working set.
        addresses = (self.trace.addresses
                     % np.uint64(geometry.total_bytes)).astype(np.int64)
        timing = DDR4_2933
        channels, ranks, bank_ids, rows = decoder.decode_batch(addresses)
        indices = banks.bank_index_batch(channels, ranks, bank_ids)
        hits, misses, conflicts = banks.access_batch(indices, rows)
        service_sum = (int(hits.sum()) * timing.row_hit_latency_ns()
                       + int(misses.sum()) * timing.row_miss_latency_ns()
                       + int(conflicts.sum())
                       * timing.row_conflict_latency_ns())
        channel0 = channels == 0
        per_bank = np.bincount(
            ranks[channel0] * BANKS_PER_RANK + bank_ids[channel0],
            minlength=geometry.ranks_per_channel * BANKS_PER_RANK)
        total = len(addresses)
        mean_service = service_sum / total
        # Per-bank arrival rates, shaped by the measured imbalance.
        arrival = access_rate_per_channel(self.profile)
        channel_total = max(1, int(per_bank.sum()))
        queue_sum = 0.0
        for count in per_bank:
            queue = bank_wait_ns(arrival * count / channel_total,
                                 mean_service)
            queue_sum += queue * count
        mean_queue = queue_sum / channel_total
        return RankSweepPoint(
            active_ranks=active_ranks,
            row_hit_ratio=banks.stats.hit_ratio,
            mean_service_ns=mean_service,
            mean_queue_ns=mean_queue,
            time_per_ki_ns=time_per_ki_ns(
                self.profile, NATIVE_DRAM_LATENCY_NS, mean_queue))

    def measure_tasks(self, rank_counts: tuple[int, ...]) -> list[TaskSpec]:
        """One executor task per power-of-two count ``rank_counts`` needs."""
        return [TaskSpec(fn=_measure_task, args=(self, ranks),
                         label=f"rank-sweep-{ranks}", cpu_bound=True)
                for ranks in _needed_power_of_two(rank_counts)]


def _measure_task(sweep: TraceRankSweep, ranks: int) -> RankSweepPoint:
    """One rank-count measurement (module-level: picklable)."""
    return sweep.measure(ranks)


def _needed_power_of_two(rank_counts: tuple[int, ...]) -> list[int]:
    """Deduplicated power-of-two counts that must actually be measured.

    Odd counts interpolate between their power-of-two neighbours, so the
    neighbours are what runs.
    """
    needed: set[int] = set()
    for ranks in rank_counts:
        if ranks & (ranks - 1):
            needed.add(1 << (ranks.bit_length() - 1))
            needed.add(1 << ranks.bit_length())
        else:
            needed.add(ranks)
    return sorted(needed)


def _resolve_points(rank_counts: tuple[int, ...],
                    measured: dict[int, RankSweepPoint],
                    ) -> dict[int, RankSweepPoint]:
    """Requested counts from measured power-of-two points."""
    points = {}
    for ranks in rank_counts:
        if ranks & (ranks - 1):
            low = measured[1 << (ranks.bit_length() - 1)]
            high = measured[1 << ranks.bit_length()]
            points[ranks] = _interpolate(ranks, low, high)
        else:
            points[ranks] = measured[ranks]
    return points


def _interpolate(ranks: int, low: RankSweepPoint,
                 high: RankSweepPoint) -> RankSweepPoint:
    """Linear interpolation between two measured power-of-two points."""
    frac = (ranks - low.active_ranks) / (high.active_ranks
                                         - low.active_ranks)
    return RankSweepPoint(
        active_ranks=ranks,
        row_hit_ratio=low.row_hit_ratio + frac * (
            high.row_hit_ratio - low.row_hit_ratio),
        mean_service_ns=low.mean_service_ns + frac * (
            high.mean_service_ns - low.mean_service_ns),
        mean_queue_ns=low.mean_queue_ns + frac * (
            high.mean_queue_ns - low.mean_queue_ns),
        time_per_ki_ns=low.time_per_ki_ns + frac * (
            high.time_per_ki_ns - low.time_per_ki_ns))


@dataclass(frozen=True)
class TraceRankSweepConfig(SeededConfig):
    """Everything one sweep experiment needs, as a single config: the
    workload, trace length, rank counts and seed (the machine is the
    Figure 2 testbed, whose 8 ranks are the baseline)."""

    workload: str = "graph-analytics"
    num_accesses: int = 60_000
    rank_counts: tuple[int, ...] = (8, 6, 4, 2)
    seed: int = 0


@dataclass
class TraceRankSweepResult:
    """Every measured point of one sweep, plus derived slowdowns."""

    config: TraceRankSweepConfig
    points: dict[int, RankSweepPoint]

    def slowdowns(self) -> dict[int, float]:
        """Relative execution-time change vs the testbed's 8 ranks."""
        base = self.points[RANKS_PER_CHANNEL].time_per_ki_ns
        return {ranks: self.points[ranks].time_per_ki_ns / base - 1.0
                for ranks in self.config.rank_counts}

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`."""
        from repro.sim.results import ExperimentRecord
        metrics: dict = {"workload": self.config.workload}
        for ranks, slowdown in sorted(self.slowdowns().items()):
            metrics[f"slowdown_{ranks}ranks"] = slowdown
        for ranks, point in sorted(self.points.items()):
            metrics[f"row_hit_ratio_{ranks}ranks"] = point.row_hit_ratio
            metrics[f"mean_queue_ns_{ranks}ranks"] = point.mean_queue_ns
        return ExperimentRecord("rank_sweep", metrics)


class RankSweepExperiment(FanOut):
    """Registry adapter: run a whole trace-driven sweep from one config.

    Only the deduplicated power-of-two measurements run, one executor
    task each; odd counts interpolate between their neighbours in
    :meth:`finish`.  Each measurement is a deterministic pure function
    of the trace, so serial and parallel sweeps are bit-identical.
    """

    name = "rank_sweep"

    def __init__(self, config: TraceRankSweepConfig | None = None,
                 exec_config: ExecConfig | None = None):
        self.config = config or TraceRankSweepConfig()
        self.exec_config = exec_config

    def begin(self) -> "RankSweepRunState":
        """Generate the trace and plan the measurements."""
        config = self.config
        sweep = TraceRankSweep(PROFILES[config.workload],
                               num_accesses=config.num_accesses,
                               seed=config.seed)
        counts = tuple(sorted(set(config.rank_counts) | {RANKS_PER_CHANNEL}))
        return RankSweepRunState(counts=counts,
                                 tasks=sweep.measure_tasks(counts))

    def fold(self, state: "RankSweepRunState", index: int,
             outcome: TaskOutcome) -> None:
        """Keep one measured point (a failed measurement raises)."""
        point = outcome.unwrap()
        state.measured[point.active_ranks] = point

    def finish(self, state: "RankSweepRunState") -> TraceRankSweepResult:
        """Interpolate odd counts and assemble the sweep result."""
        points = _resolve_points(state.counts, state.measured)
        return TraceRankSweepResult(config=self.config, points=points)


@dataclass(kw_only=True)
class RankSweepRunState(FanOutState):
    """Measurement progress of one rank sweep: one task per power-of-two
    count, each carrying the shared sweep."""

    counts: tuple[int, ...]
    measured: dict[int, RankSweepPoint] = field(default_factory=dict)


def interleaving_comparison(profile: WorkloadProfile,
                            num_accesses: int = 30_000,
                            footprint_ranks: int = 1,
                            seed: int = 0) -> dict[str, float]:
    """Trace-driven Figure 5 cross-check.

    Measures the queueing + row-buffer cost of serving the same trace
    under (a) conventional fine-grained interleaving over every rank and
    (b) the DTL layout where the footprint concentrates on
    ``footprint_ranks`` ranks per channel, and converts the delta into a
    slowdown at both the local and CXL base latencies.

    Returns:
        ``{"local": slowdown, "cxl": slowdown}``.
    """
    sweep = TraceRankSweep(profile, num_accesses, seed)
    # Load spread over every rank, and concentrated on the footprint's.
    interleaved = sweep.measure(RANKS_PER_CHANNEL).mean_queue_ns
    concentrated = sweep.measure(footprint_ranks).mean_queue_ns
    return {label: time_per_ki_ns(profile, latency, concentrated)
            / time_per_ki_ns(profile, latency, interleaved) - 1.0
            for label, latency in (("local", NATIVE_DRAM_LATENCY_NS),
                                   ("cxl", CXL_MEMORY_LATENCY_NS))}


def _workload_slowdown(name: str, seed: int, active_ranks: int,
                       num_accesses: int) -> float:
    """One workload's Figure 2 slowdown (module-level: picklable)."""
    config = TraceRankSweepConfig(workload=name, num_accesses=num_accesses,
                                  rank_counts=(active_ranks,), seed=seed)
    return RankSweepExperiment(config).run().slowdowns()[active_ranks]


def mean_trace_driven_slowdown(active_ranks: int,
                               workloads: tuple[str, ...] = (
                                   "graph-analytics", "data-serving",
                                   "data-caching", "web-search"),
                               num_accesses: int = 30_000,
                               exec_config: ExecConfig | None = None,
                               ) -> float:
    """Average trace-driven Figure 2 slowdown over a workload sample.

    The per-workload sweeps are independent (each builds its own trace),
    so they fan out through :mod:`repro.exec`.
    """
    outcomes = run_tasks(
        [TaskSpec(fn=_workload_slowdown,
                  args=(name, index, active_ranks, num_accesses),
                  label=f"rank-sweep-{name}", cpu_bound=True)
         for index, name in enumerate(workloads)],
        config=exec_config)
    return float(np.mean([outcome.unwrap() for outcome in outcomes]))


__all__ = [
    "RankSweepPoint",
    "TraceRankSweep",
    "TraceRankSweepConfig",
    "TraceRankSweepResult",
    "RankSweepExperiment",
    "RankSweepRunState",
    "mean_trace_driven_slowdown",
]
