"""Fleet-level study: many pool nodes, racks, one datacenter.

Scales the Figure 12 experiment out: a fleet of memory-pool nodes each
runs its own Azure-like VM schedule through a DTL device, and the
per-node DRAM savings aggregate into the datacenter-level power/TCO
numbers the paper's introduction motivates (DRAM ~38 % of server power,
savings -> TCO).

Node heterogeneity comes from independent trace seeds: some nodes run
hot (little to power down), others sit half-empty — the fleet mean is
what a capacity planner sees.

Each node is one executor task, the same fan-out shape as the rank
sweep and the tournament.  The worker reduces the node's full
:class:`~repro.sim.powerdown_sim.PowerDownComparisonResult` to a compact
:class:`NodeSummary` before anything crosses the process boundary, and
the parent folds each summary's telemetry counters as it streams in and
keeps the summary without them, so no process holds the fleet's full
records.

Determinism: outcomes stream in node order, so every float fold
(energies, counter sums) sees the same operand sequence whatever the
worker count — ``fleet_savings``, ``telemetry_totals()`` and
``to_record()`` are bit-identical between serial and parallel runs.

:class:`RackConfig` layers rack structure on top: consecutive nodes
share one pooled-memory fabric, and each rack's aggregate bandwidth
demand (from the node summaries) runs through the M/D/1 contention
model in :mod:`repro.cxl.pool`, feeding a contended execution stretch
back into the rack-level energy numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tco import TcoModel
from repro.checkpoint import FanOut, FanOutState
from repro.cxl.pool import PoolContention, pool_contention
from repro.exec import ExecConfig, TaskOutcome, TaskSpec
from repro.sim.powerdown_sim import (FIG12_13_PAPER, ComparisonSimulator,
                                     PowerDownComparisonResult,
                                     PowerDownSimConfig)


@dataclass(frozen=True)
class FleetConfig:
    """A fleet of identical pool nodes with independent schedules.

    The default is the full Figure 12 schedule over seeds 0-7, so its
    record carries the Figure 12/13 seed spread.

    Attributes:
        num_nodes: Pool nodes simulated (each gets its own VM trace).
        node: Per-node simulation configuration template.
        base_seed: Node ``i`` uses seed ``base_seed + i``.
        tco: Cost model for the datacenter roll-up.
    """

    num_nodes: int = 8
    node: PowerDownSimConfig = field(default_factory=PowerDownSimConfig)
    base_seed: int = 0
    tco: TcoModel = field(default_factory=TcoModel)


@dataclass(frozen=True)
class RackConfig(FleetConfig):
    """A fleet organised into racks sharing pooled-memory fabrics.

    Consecutive nodes (``hosts_per_rack`` at a time, in seed order) form
    one rack whose hosts all reach the pool through the same fabric;
    their aggregate bandwidth demand contends per the default
    :class:`~repro.cxl.pool.PoolContentionConfig`.
    """

    hosts_per_rack: int = 8


@dataclass(frozen=True)
class NodeSummary:
    """One node's results, reduced to the scalars the fleet aggregates.

    Built inside the worker from the node's paired baseline/DTL run;
    this — not the full result with its timeseries — is what ships
    through the pool.  Energy fields are the exact floats the full
    results would have produced (same operations, same order), so
    aggregates over summaries are bit-identical to aggregates over full
    results.
    """

    seed: int
    #: Stretched totals (``PowerDownResult.total_energy``) — what
    #: ``fleet_savings`` folds.
    baseline_energy_j: float
    dtl_energy_j: float
    #: Unstretched integrals plus the DTL stretch factor, for the rack
    #: contention model (which adds its own latency penalty).
    baseline_raw_energy_j: float
    dtl_raw_energy_j: float
    dtl_execution_factor: float
    #: Figure 13's background-power saving of this node's pair.
    background_savings: float
    mean_active_ranks: float
    mean_bandwidth_gbs: float
    mean_reserved_bytes: float
    migrated_bytes: int
    power_transitions: int
    #: The DTL run's final telemetry counters; folded into the fleet
    #: totals in node order and then dropped from the retained summary.
    counters: dict[str, float] | None = None

    @property
    def energy_savings(self) -> float:
        """This node's DRAM energy saving."""
        return 1.0 - self.dtl_energy_j / self.baseline_energy_j

    @classmethod
    def from_comparison(cls, seed: int,
                        pair: PowerDownComparisonResult) -> NodeSummary:
        counters = (pair.dtl.telemetry or {}).get("counters") or None
        return cls(
            seed=seed,
            baseline_energy_j=pair.baseline.total_energy,
            dtl_energy_j=pair.dtl.total_energy,
            baseline_raw_energy_j=pair.baseline.energy.total_j,
            dtl_raw_energy_j=pair.dtl.energy.total_j,
            dtl_execution_factor=pair.dtl.execution_time_factor,
            background_savings=pair.background_savings,
            mean_active_ranks=pair.dtl.mean_active_ranks,
            mean_bandwidth_gbs=pair.dtl.mean_bandwidth_gbs,
            mean_reserved_bytes=pair.dtl.mean_reserved_bytes,
            migrated_bytes=pair.dtl.migrated_bytes,
            power_transitions=pair.dtl.power_transitions,
            counters=counters)


@dataclass
class NodeFailure:
    """A node whose simulation did not produce a result."""

    seed: int
    error: str


@dataclass(frozen=True)
class _NodeRunner:
    """Picklable per-node unit of work (index -> node summary).

    The node's full comparison result is reduced to a
    :class:`NodeSummary` here, in the worker, so only the summary
    crosses the process boundary.

    ``fail_seeds`` is a deterministic failure-injection hook for tests:
    monkeypatches do not reach pool workers, but a field on the runner
    ships with the task.
    """

    node: PowerDownSimConfig
    base_seed: int
    fail_seeds: tuple[int, ...] = ()

    def __call__(self, index: int) -> NodeSummary:
        seed = self.base_seed + index
        if seed in self.fail_seeds:
            raise RuntimeError(f"injected failure for node {seed}")
        return NodeSummary.from_comparison(
            seed, ComparisonSimulator(self.node.with_seed(seed)).run())


@dataclass
class CounterFold:
    """Fleet counter totals folded during streaming aggregation."""

    sums: dict[str, float] = field(default_factory=dict)
    reporting: int = 0
    missing: int = 0

    def fold(self, counters: dict[str, float] | None) -> None:
        """Fold one node's counters (in node order, for bit-identity)."""
        if not counters:
            self.missing += 1
            return
        self.reporting += 1
        for name, value in counters.items():
            self.sums[name] = self.sums.get(name, 0.0) + value


@dataclass(frozen=True)
class RackSummary:
    """One rack's pooled-fabric view, derived from its node summaries."""

    rack_index: int
    num_nodes: int
    total_bytes: int
    reserved_bytes: float
    demand_gbs: float
    contention: PoolContention
    #: Contention-stretched energies: the fabric queueing delay adds to
    #: each node's execution time the way the translation/interleaving
    #: penalties do (additively), so the baseline pays the raw slowdown
    #: while the DTL run adds it on top of its own stretch factor.
    baseline_energy_j: float
    dtl_energy_j: float

    @property
    def energy_savings(self) -> float:
        """Contended DRAM energy saving of this rack."""
        return 1.0 - self.dtl_energy_j / self.baseline_energy_j


@dataclass
class FleetResult:
    """Aggregate of every node's outcome."""

    config: FleetConfig
    nodes: list[NodeSummary]
    failures: list[NodeFailure] = field(default_factory=list)
    #: Executor accounting for the fan-out (per-task wall times, shipped
    #: bytes etc.); not part of :meth:`to_record` so records stay
    #: deterministic.
    exec_telemetry: dict = field(default_factory=dict)
    #: Counter totals folded as the nodes streamed in.
    counter_fold: CounterFold = field(default_factory=CounterFold)

    @property
    def per_node_savings(self) -> np.ndarray:
        """Each node's DRAM energy saving."""
        return np.array([node.energy_savings for node in self.nodes])

    @property
    def fleet_savings(self) -> float:
        """Energy-weighted fleet-level DRAM saving."""
        baseline = sum(node.baseline_energy_j for node in self.nodes)
        dtl = sum(node.dtl_energy_j for node in self.nodes)
        return 1.0 - dtl / baseline

    def tco_report(self) -> dict[str, float]:
        """Datacenter-level roll-up through the TCO model."""
        return self.config.tco.report(self.fleet_savings)

    def telemetry_totals(self) -> dict[str, float]:
        """Fleet-wide sums of every node's DTL telemetry counters.

        Counters (accesses, SMC hits, migrated segments, power
        transitions, ...) add across nodes; gauges and residency do not,
        so only counters are aggregated here.  The sums are folded as
        each node streams in (node order, so the float totals are
        identical in every execution mode).

        A node with no telemetry counters is *skipped*, not silently
        folded in as zeros; the ``fleet.*`` meta-counters make the
        difference between "no events" and "no data" visible:

        * ``fleet.nodes_reporting`` — nodes whose counters were summed,
        * ``fleet.nodes_missing_telemetry`` — nodes skipped for lack of
          a snapshot,
        * ``fleet.nodes_failed`` — nodes whose simulation failed
          outright (they appear in :attr:`failures`, not
          :attr:`nodes`).
        """
        fold = self.counter_fold
        totals = dict(fold.sums)
        totals["fleet.nodes_reporting"] = float(fold.reporting)
        totals["fleet.nodes_missing_telemetry"] = float(fold.missing)
        totals["fleet.nodes_failed"] = float(len(self.failures))
        return totals

    # -- rack view ----------------------------------------------------------

    def rack_summaries(self) -> list[RackSummary]:
        """Per-rack pooled-fabric contention, from the node summaries.

        Requires a :class:`RackConfig`; nodes group into racks by seed
        (``hosts_per_rack`` consecutive seeds per rack), so a failed
        node simply leaves its rack one host short.
        """
        config = self.config
        if not isinstance(config, RackConfig):
            raise TypeError("rack summaries need a RackConfig, got "
                            f"{type(config).__name__}")
        per_rack: dict[int, list[NodeSummary]] = {}
        for node in self.nodes:
            rack = (node.seed - config.base_seed) // config.hosts_per_rack
            per_rack.setdefault(rack, []).append(node)
        node_bytes = config.node.geometry.total_bytes
        summaries = []
        for rack in sorted(per_rack):
            nodes = per_rack[rack]
            demand = sum(node.mean_bandwidth_gbs for node in nodes)
            reserved = sum(node.mean_reserved_bytes for node in nodes)
            contention = pool_contention(demand)
            extra = contention.slowdown - 1.0
            baseline = sum(node.baseline_raw_energy_j * (1.0 + extra)
                           for node in nodes)
            dtl = sum(node.dtl_raw_energy_j
                      * (node.dtl_execution_factor + extra)
                      for node in nodes)
            summaries.append(RackSummary(
                rack_index=rack, num_nodes=len(nodes),
                total_bytes=node_bytes * len(nodes),
                reserved_bytes=reserved, demand_gbs=demand,
                contention=contention,
                baseline_energy_j=baseline, dtl_energy_j=dtl))
        return summaries

    def rack_report(self) -> dict[str, float]:
        """Fleet-level roll-up of the rack contention model."""
        racks = self.rack_summaries()
        baseline = sum(rack.baseline_energy_j for rack in racks)
        dtl = sum(rack.dtl_energy_j for rack in racks)
        slowdowns = [rack.contention.slowdown for rack in racks]
        utilizations = [rack.contention.utilization for rack in racks]
        return {
            "num_racks": float(len(racks)),
            "fleet_savings": self.fleet_savings,
            "contended_fleet_savings": 1.0 - dtl / baseline,
            "mean_pool_slowdown": float(np.mean(slowdowns)),
            "max_pool_utilization": float(max(utilizations)),
            "saturated_racks": float(sum(rack.contention.saturated
                                         for rack in racks)),
        }

    # -- reporting ----------------------------------------------------------

    def summary_rows(self) -> list[tuple]:
        """Per-node + fleet rows for reporting."""
        rows = [(f"node {node.seed}", f"{node.energy_savings:.1%}",
                 f"{node.mean_active_ranks:.2f}")
                for node in self.nodes]
        rows.extend((f"node {failure.seed}", "FAILED", failure.error)
                    for failure in self.failures)
        rows.append(("fleet", f"{self.fleet_savings:.1%}", ""))
        return rows

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`
        (a racked fleet adds its ``rack_*`` contention roll-up).  The
        q1 / median / q3 over the nodes of each Figure 12-13 metric is
        the seed spread; each median carries the paper value the
        ``powerdown_comparison`` record states for one seed."""
        from repro.sim.results import ExperimentRecord
        rack = (self.rack_report() if isinstance(self.config, RackConfig)
                else {})
        per_node = {
            "energy_savings": self.per_node_savings,
            "background_savings": [node.background_savings
                                   for node in self.nodes],
            "dtl_execution_factor": [node.dtl_execution_factor
                                     for node in self.nodes]}
        spread = {f"{name}_{label}": float(value)
                  for name, values in per_node.items()
                  for label, value in zip(("q1", "median", "q3"),
                                          np.percentile(values, [25, 50, 75]))}
        return ExperimentRecord("fleet", {
            "fleet_savings": self.fleet_savings,
            "per_node": self.per_node_savings.tolist(),
            "node_seeds": [node.seed for node in self.nodes],
            "failed_seeds": [failure.seed for failure in self.failures],
            **spread,
            **{f"tco_{key}": value
               for key, value in self.tco_report().items()},
            **{f"rack_{key}": value for key, value in rack.items()}},
            {"energy_savings_median": FIG12_13_PAPER["energy_savings"],
             "background_savings_median":
                 FIG12_13_PAPER["background_savings"],
             "dtl_execution_factor_median":
                 FIG12_13_PAPER["dtl_execution_time_factor"]})


class FleetSimulator(FanOut):
    """Run the node-level comparison across the whole fleet.

    One executor task per node (see the module docstring); set
    ``fail_seeds`` before :meth:`run` to deterministically fail specific
    nodes (testing hook — it ships to the workers with the task).
    """

    name = "fleet"

    def __init__(self, config: FleetConfig | None = None,
                 exec_config: ExecConfig | None = None):
        self.config = config or FleetConfig()
        self.exec_config = exec_config
        self.fail_seeds: tuple[int, ...] = ()

    def begin(self) -> "FleetRunState":
        """Plan one task per node; nothing has run yet."""
        config = self.config
        runner = _NodeRunner(node=config.node, base_seed=config.base_seed,
                             fail_seeds=tuple(self.fail_seeds))
        return FleetRunState(
            tasks=[TaskSpec(fn=runner, args=(index,),
                            label=f"fleet-node[{index}]", cpu_bound=True)
                   for index in range(config.num_nodes)])

    def fold(self, state: "FleetRunState", index: int,
             outcome: TaskOutcome) -> None:
        """A failed node lands in ``state.failures`` rather than raising;
        a good node's counters fold into ``state.counter_fold`` in node
        order, and the node is kept without them."""
        if outcome.error is not None:
            state.failures.append(NodeFailure(
                seed=self.config.base_seed + index, error=outcome.error))
            return
        summary: NodeSummary = outcome.value
        state.counter_fold.fold(summary.counters)
        state.nodes.append(dataclasses.replace(summary, counters=None))

    def finish(self, state: "FleetRunState") -> FleetResult:
        """Assemble the aggregate from the folded nodes."""
        return FleetResult(config=self.config, nodes=state.nodes,
                           failures=state.failures,
                           exec_telemetry=state.metrics.snapshot().to_dict(),
                           counter_fold=state.counter_fold)


@dataclass(kw_only=True)
class FleetRunState(FanOutState):
    """Node progress of one fleet run: one task per node, in node order."""

    nodes: list[NodeSummary] = field(default_factory=list)
    failures: list[NodeFailure] = field(default_factory=list)
    counter_fold: CounterFold = field(default_factory=CounterFold)


__all__ = [
    "CounterFold",
    "FleetConfig",
    "FleetResult",
    "FleetRunState",
    "FleetSimulator",
    "NodeFailure",
    "NodeSummary",
    "RackConfig",
    "RackSummary",
]
