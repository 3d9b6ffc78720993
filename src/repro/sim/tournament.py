"""Policy tournament: sweep registered policies across workload mixes.

Every registered :mod:`repro.policies` plug-in is a drop-in replacement
for the paper's CLOCK/static behaviour, so the natural question is which
one wins *where*.  :class:`PolicyTournament` answers it empirically: it
fans ``policies x workload mixes`` self-refresh simulations out through
the cached parallel executor, reads each cell's energy savings and
performance overhead, and reports the Pareto front of the two axes.

The two axes per cell:

* **savings** — stable fractional background-power savings
  (``SelfRefreshResult.stable_savings``), the paper's Figure 14 metric.
* **overhead** — the fraction of simulated time spent paying for the
  policy's aggression: cumulative SR exit penalty plus the wall time the
  migration traffic would occupy on the mix's post-cache bandwidth.

A cell is Pareto-optimal when no other cell has savings at least as
high *and* overhead at least as low, with one of the two strict.

The module deliberately imports nothing from
:mod:`repro.sim.experiments` at module level — the registry imports
*this* module to register the ``tournament`` experiment, so the
``experiment_task`` import happens lazily inside
:meth:`PolicyTournament.begin`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checkpoint import FanOut, FanOutState
from repro.exec import ExecConfig, TaskOutcome
from repro.seeded import SeededConfig
from repro.sim.selfrefresh_sim import SelfRefreshResult, SelfRefreshSimConfig
from repro.units import ns_to_s
from repro.workloads.cloudsuite import TRACED_BENCHMARKS


#: The workload mixes, labelled ``mix0``, ``mix1``, ... in this order.
TOURNAMENT_MIXES = (TRACED_BENCHMARKS[:3], TRACED_BENCHMARKS[3:6])


@dataclass(frozen=True)
class TournamentConfig(SeededConfig):
    """Which policies meet :data:`TOURNAMENT_MIXES`, and for how long.

    Attributes:
        policies: Registered policy names to enter (see
            :func:`repro.policies.available_policies`).
        duration_s: Simulated seconds per cell.
        seed: Shared RNG seed so cells differ only in policy/workloads.
    """

    policies: tuple[str, ...] = ("paper", "rank_aware", "dream", "adaptive")
    duration_s: float = 20.0
    seed: int = 0


def quick_tournament_config(seed: int = 0) -> TournamentConfig:
    """Seconds-scale tournament for smoke tests and ``--quick`` runs."""
    return TournamentConfig(duration_s=2.0, seed=seed)


@dataclass(frozen=True)
class TournamentCell:
    """One (policy, workload mix) outcome on the savings/overhead plane."""

    policy: str
    workload: str
    savings: float
    overhead: float
    sr_entries: int
    sr_exits: int
    migrated_bytes: int
    exit_penalty_ns: float

    def dominates(self, other: "TournamentCell") -> bool:
        """True when this cell is at least as good on both axes and
        strictly better on one."""
        at_least = (self.savings >= other.savings
                    and self.overhead <= other.overhead)
        strict = (self.savings > other.savings
                  or self.overhead < other.overhead)
        return at_least and strict


def cell_from_result(policy: str, workload: str,
                     result: SelfRefreshResult) -> TournamentCell:
    """Project one self-refresh run onto the tournament's two axes."""
    config = result.config
    migration_s = (result.migrated_bytes
                   / (config.aggregate_bandwidth_gbs * 1e9))
    overhead = ((ns_to_s(result.exit_penalty_ns) + migration_s)
                / config.duration_s)
    return TournamentCell(
        policy=policy,
        workload=workload,
        savings=result.stable_savings,
        overhead=overhead,
        sr_entries=result.sr_entries,
        sr_exits=result.sr_exits,
        migrated_bytes=result.migrated_bytes,
        exit_penalty_ns=result.exit_penalty_ns)


@dataclass
class TournamentResult:
    """All cells plus the derived Pareto front and per-policy means."""

    config: TournamentConfig
    cells: list[TournamentCell]
    #: ``(policy, workload, error message)`` for cells whose simulation
    #: failed; the surviving cells still rank.
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    def pareto_front(self) -> list[TournamentCell]:
        """Non-dominated cells, sorted by descending savings."""
        front = [cell for cell in self.cells
                 if not any(other.dominates(cell) for other in self.cells)]
        return sorted(front, key=lambda cell: (-cell.savings, cell.overhead,
                                               cell.policy, cell.workload))

    def policy_means(self) -> dict[str, tuple[float, float]]:
        """Per-policy ``(mean savings, mean overhead)`` across mixes."""
        means: dict[str, tuple[float, float]] = {}
        for policy in self.config.policies:
            mine = [cell for cell in self.cells if cell.policy == policy]
            if not mine:
                continue
            means[policy] = (
                sum(cell.savings for cell in mine) / len(mine),
                sum(cell.overhead for cell in mine) / len(mine))
        return means

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`."""
        from repro.sim.results import ExperimentRecord, flatten_tournament
        return ExperimentRecord("tournament", flatten_tournament(self))


class PolicyTournament(FanOut):
    """Experiment wrapper: run the full grid through the executor."""

    name = "tournament"

    def __init__(self, config: TournamentConfig | None = None,
                 exec_config: ExecConfig | None = None):
        self.config = config or TournamentConfig()
        self.exec_config = exec_config

    def cell_configs(self) -> list[tuple[str, str, SelfRefreshSimConfig]]:
        """The grid as ``(policy, mix label, sim config)`` triples."""
        grid = []
        for policy in self.config.policies:
            for index, mix in enumerate(TOURNAMENT_MIXES):
                sim = SelfRefreshSimConfig(
                    workloads=tuple(mix),
                    duration_s=self.config.duration_s,
                    policy=policy,
                    seed=self.config.seed)
                grid.append((policy, f"mix{index}", sim))
        return grid

    def begin(self) -> TournamentRunState:
        """Plan one executor task per grid cell; none have run yet."""
        # Imported lazily: repro.sim.experiments imports this module to
        # register the "tournament" spec.
        from repro.sim.experiments import experiment_task

        grid = self.cell_configs()
        return TournamentRunState(
            grid=grid,
            tasks=[experiment_task("selfrefresh", sim) for _, _, sim in grid])

    def fold(self, state: TournamentRunState, index: int,
             outcome: TaskOutcome) -> None:
        """Failed cells land in ``state.failures`` rather than raising, so
        one pathological policy cannot sink the whole tournament."""
        policy, label, _ = state.grid[index]
        if outcome.error is not None:
            state.failures.append((policy, label, outcome.error))
        else:
            state.cells.append(cell_from_result(policy, label, outcome.value))

    def finish(self, state: TournamentRunState) -> TournamentResult:
        """Assemble the Pareto-ranked result from the completed cells."""
        return TournamentResult(config=self.config, cells=state.cells,
                                failures=state.failures)


@dataclass(kw_only=True)
class TournamentRunState(FanOutState):
    """Cell progress of one tournament: one ``selfrefresh`` experiment
    task per grid entry, in grid order."""

    grid: list[tuple[str, str, SelfRefreshSimConfig]]
    cells: list[TournamentCell] = field(default_factory=list)
    failures: list[tuple[str, str, str]] = field(default_factory=list)


__all__ = [
    "TOURNAMENT_MIXES",
    "TournamentConfig",
    "TournamentCell",
    "TournamentResult",
    "TournamentRunState",
    "PolicyTournament",
    "cell_from_result",
    "quick_tournament_config",
]
