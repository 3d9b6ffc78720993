"""The single experiment registry behind the CLI and the executor.

Every registered experiment is a
:class:`~repro.checkpoint.stepping.Stepper` — ``name``, ``begin`` /
``advance`` / ``finish`` and the ``run()`` over them, returning a result
with ``to_record()`` — built from an :class:`ExperimentSpec`.  Anything
that can name an experiment and build (or load) its config dataclass
can then run it the same way, in one call or a step at a time:

>>> from repro.sim.experiments import EXPERIMENTS, run_experiment
>>> spec = EXPERIMENTS["selfrefresh"]
>>> result = run_experiment("selfrefresh", spec.tiny_config())
>>> record = result.to_record()

:func:`run_experiment` is a module-level function of picklable
arguments, so an ``(experiment name, config)`` pair is also the natural
unit of work for :mod:`repro.exec` — :func:`experiment_task` wraps one
into a cacheable :class:`~repro.exec.runner.TaskSpec`, and
:func:`run_experiments` fans a batch out with result caching.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.checkpoint import FanOut, Stepper
from repro.exec import (ExecConfig, ResultCache, TaskOutcome, TaskSpec,
                        run_tasks, task_key)
from repro.faults.chaos import ChaosSoakConfig, ChaosSoakExperiment
from repro.host.scheduler import SchedulerConfig
from repro.server.soak import (ServerSoakConfig, ServerSoakExperiment,
                               quick_server_soak_config)
from repro.sim.analytic import (ANALYTIC_ROWS, AnalyticConfig,
                                AnalyticExperiment)
from repro.sim.comparison import PolicyComparisonExperiment
from repro.sim.fleet import FleetConfig, FleetSimulator, RackConfig
from repro.sim.powerdown_sim import (ComparisonSimulator,
                                     PowerDownSimConfig, PowerDownSimulator)
from repro.sim.rank_sweep import RankSweepExperiment, TraceRankSweepConfig
from repro.sim.selfrefresh_sim import (PAPER_CAPACITY_POINTS,
                                       SelfRefreshSimConfig,
                                       SelfRefreshSimulator, config_for_point)
from repro.sim.tournament import (PolicyTournament, TournamentConfig,
                                  quick_tournament_config)
from repro.workloads.azure import AzureTraceConfig
from repro.workloads.cloudsuite import TRACED_BENCHMARKS


@dataclass(frozen=True)
class ExperimentSpec:
    """How to build one registered experiment.

    Attributes:
        name: Registry key (also the experiment's ``name`` attribute and
            the prefix of its cache keys).
        config_type: The config dataclass the factory accepts.
        factory: ``config -> Stepper`` constructor.
        tiny_config: Builds a seconds-scale config for smoke tests and
            the registry round-trip suite.
        summary: One-line description for ``repro exp --list``.
        flag_configs: ``flags -> {label: config}`` for the shell
            commands that front this experiment: the config(s) that
            ``--seed/--quick/--duration/--point/--workers`` ask for
            (``flags`` is the parsed argument namespace).  The label is
            ``""`` unless one command fans out over several configs
            (Figure 14's capacity points).  ``None``: ``--quick`` means
            ``tiny_config``, otherwise the default config, seeded.
    """

    name: str
    config_type: type
    factory: Callable[[Any], Stepper]
    tiny_config: Callable[[], Any]
    summary: str
    flag_configs: Callable[[Any], dict[str, Any]] | None = None


#: The registry: experiment name -> spec.
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to :data:`EXPERIMENTS` (name must be free)."""
    if spec.name in EXPERIMENTS:
        raise ValueError(f"experiment {spec.name!r} already registered")
    EXPERIMENTS[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    """Look up a spec; a helpful ``KeyError`` lists valid names."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"choices: {sorted(EXPERIMENTS)}") from None


def make_experiment(name: str, config: Any | None = None,
                    exec_config: ExecConfig | None = None) -> Stepper:
    """Instantiate the named experiment (default config when ``None``).

    ``exec_config`` reaches the experiments that fan out internally
    (fleet nodes, sweep points, tournament cells), for ``run()`` and
    for a stepped ``advance()`` alike; it never changes a result, only
    how many processes compute it.
    """
    spec = get_spec(name)
    if config is None:
        config = spec.config_type()
    experiment = spec.factory(config)
    if exec_config is not None and isinstance(experiment, FanOut):
        experiment.exec_config = exec_config
    return experiment


def run_experiment(name: str, config: Any | None = None,
                   exec_config: ExecConfig | None = None) -> Any:
    """Build and run the named experiment.

    Module-level and fully determined by its (picklable) arguments —
    this is the function the process-pool workers execute.
    """
    return make_experiment(name, config, exec_config).run()


def experiment_task(name: str, config: Any,
                    exec_config: ExecConfig | None = None) -> TaskSpec:
    """Wrap one ``(name, config)`` pair as a cacheable executor task."""
    get_spec(name)  # fail fast on unknown names, before fan-out
    return TaskSpec(fn=run_experiment, args=(name, config, exec_config),
                    key=task_key(name, config), label=name)


def run_experiments(requests: list[tuple[str, Any]],
                    exec_config: ExecConfig | None = None,
                    cache: ResultCache | None = None) -> list[TaskOutcome]:
    """Fan a batch of ``(name, config)`` requests out through the executor.

    Returns one :class:`TaskOutcome` per request, in order; failed
    experiments report through ``outcome.error`` instead of raising, so
    one bad run cannot sink a batch.  A lone request runs in-process, so
    it is handed ``exec_config`` for its own internal fan-out; a batch
    spends the workers on the requests themselves.
    """
    inner = exec_config if len(requests) == 1 else None
    tasks = [experiment_task(name, config, exec_config=inner)
             for name, config in requests]
    return run_tasks(tasks, config=exec_config, cache=cache)


# -- registrations -----------------------------------------------------------------
# Each spec's configs sit together: ``tiny_config`` (smoke tests,
# ``repro exp --name``) and ``flag_configs`` (what the shell command's
# flags ask for).


def _schedule(num_vms: int, duration_s: float = 3600.0,
              seed: int = 0) -> PowerDownSimConfig:
    """A short VM schedule (one hour: ``--quick`` fig12, fleet nodes)."""
    return PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=num_vms, duration_s=duration_s),
        scheduler=SchedulerConfig(duration_s=duration_s), seed=seed)


def _tiny_powerdown_config() -> PowerDownSimConfig:
    return _schedule(8, duration_s=900.0)


def _fig12_configs(flags: Any) -> dict[str, PowerDownSimConfig]:
    return {"": (_schedule(80, seed=flags.seed) if flags.quick
                 else PowerDownSimConfig(seed=flags.seed))}


def _fleet_configs(flags: Any) -> dict[str, RackConfig]:
    return {"": RackConfig(num_nodes=2 if flags.quick else 6,
                           node=_schedule(60), base_seed=flags.seed,
                           hosts_per_rack=2)}


def _fig14_configs(flags: Any) -> dict[str, SelfRefreshSimConfig]:
    points = [flags.point] if flags.point else sorted(PAPER_CAPACITY_POINTS)
    return {point: config_for_point(point, seed=flags.seed,
                                    duration_s=flags.duration)
            for point in points}


register(ExperimentSpec(
    name="powerdown",
    config_type=PowerDownSimConfig,
    factory=PowerDownSimulator,
    tiny_config=_tiny_powerdown_config,
    summary="VM-schedule rank power-down simulation (Figure 12)"))

register(ExperimentSpec(
    name="powerdown_comparison",
    config_type=PowerDownSimConfig,
    factory=ComparisonSimulator,
    tiny_config=_tiny_powerdown_config,
    summary="baseline-vs-DTL pair on one VM trace (Figures 12-13)",
    flag_configs=_fig12_configs))

register(ExperimentSpec(
    name="fleet",
    config_type=FleetConfig,
    factory=FleetSimulator,
    tiny_config=lambda: FleetConfig(num_nodes=2,
                                    node=_tiny_powerdown_config()),
    summary="multi-node fleet fan-out with datacenter TCO roll-up",
    flag_configs=_fleet_configs))

register(ExperimentSpec(
    name="rank_sweep",
    config_type=TraceRankSweepConfig,
    factory=RankSweepExperiment,
    tiny_config=lambda: TraceRankSweepConfig(num_accesses=3_000,
                                             rank_counts=(8, 2)),
    summary="trace-driven rank-count sensitivity (Figure 2 cross-check)"))

register(ExperimentSpec(
    name="selfrefresh",
    config_type=SelfRefreshSimConfig,
    factory=SelfRefreshSimulator,
    tiny_config=lambda: SelfRefreshSimConfig(
        workloads=TRACED_BENCHMARKS[:3], duration_s=2.0),
    summary="hotness-aware self-refresh replay (Figure 14)",
    flag_configs=_fig14_configs))

register(ExperimentSpec(
    name="ramzzz_comparison",
    config_type=SelfRefreshSimConfig,
    factory=PolicyComparisonExperiment,
    tiny_config=lambda: SelfRefreshSimConfig(
        workloads=TRACED_BENCHMARKS[:3], duration_s=1.0),
    summary="DTL self-refresh vs the RAMZzz epoch baseline"))

register(ExperimentSpec(
    name="tournament",
    config_type=TournamentConfig,
    factory=PolicyTournament,
    tiny_config=quick_tournament_config,
    summary="policy x workload Pareto tournament (savings vs overhead)"))

register(ExperimentSpec(
    name="chaos",
    config_type=ChaosSoakConfig,
    factory=ChaosSoakExperiment,
    tiny_config=lambda: ChaosSoakConfig(levels=2, batches_per_phase=4,
                                        batch_size=32),
    summary="escalating fault-injection soak with consistency audits"))

register(ExperimentSpec(
    name="server-soak",
    config_type=ServerSoakConfig,
    factory=ServerSoakExperiment,
    tiny_config=quick_server_soak_config,
    summary="multi-tenant service soak: chaos, drain/restore, isolation"))

for _name, (_row, _summary) in ANALYTIC_ROWS.items():
    register(ExperimentSpec(
        name=_name,
        config_type=AnalyticConfig,
        factory=functools.partial(AnalyticExperiment, _name, _row),
        tiny_config=AnalyticConfig,
        summary=_summary))


__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "register",
    "get_spec",
    "make_experiment",
    "run_experiment",
    "experiment_task",
    "run_experiments",
]
