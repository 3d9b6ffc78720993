"""10k-node fleet soak: streaming aggregation under a memory ceiling.

The rack-scale claim is not "the fleet runs fast", it is "the fleet
*fits*": the sharded fan-out with worker-side reduction must let the
parent process aggregate thousands of nodes without ever materialising
their full result payloads.  This experiment makes that a measurable
acceptance gate:

* run a large fleet sharded-serial, then (optionally) sharded-parallel
  with the pool forced on, and require ``fleet_savings`` to be
  **bit-identical** between the two;
* track the process's peak RSS (``ru_maxrss``) across the whole soak
  and require it to stay under a configured ceiling.

Node simulations use a deliberately small device/schedule so the soak
measures the *aggregation path* at scale, not six-hour node physics.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field

from repro.checkpoint import SteppedExperiment
from repro.dram.geometry import DramGeometry
from repro.exec import ExecConfig
from repro.host.scheduler import SchedulerConfig
from repro.sim.fleet import FleetSimulator, RackConfig
from repro.sim.powerdown_sim import PowerDownSimConfig
from repro.units import GIB
from repro.workloads.azure import AzureTraceConfig


def peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MiB.

    ``ru_maxrss`` is kilobytes on Linux, bytes on macOS; it is
    monotonic, so callers measure a soak by recording it before and
    after and gating on the after value.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def soak_node_config(duration_s: float = 1800.0,
                     num_vms: int = 8) -> PowerDownSimConfig:
    """A small-but-real node for soak scale: 32 GiB device, 30 min trace.

    ``keep_timeseries=False`` — the soak aggregates scalars; shipping
    interval records for 10k nodes is exactly the payload problem the
    sharded path removes.
    """
    return PowerDownSimConfig(
        geometry=DramGeometry(rank_bytes=1 * GIB),
        scheduler=SchedulerConfig(memory_bytes=24 * GIB,
                                  duration_s=duration_s),
        azure=AzureTraceConfig(num_vms=num_vms, duration_s=duration_s),
        keep_timeseries=False)


@dataclass(frozen=True)
class FleetSoakConfig:
    """Parameters of the soak.

    Attributes:
        num_nodes: Fleet size (the acceptance run uses 10 000).
        shard_size: Nodes per worker invocation.
        hosts_per_rack: Rack width for the contention roll-up.
        node: Per-node config template (small by default; see
            :func:`soak_node_config`).
        base_seed: Node ``i`` uses seed ``base_seed + i``.
        rss_ceiling_mb: Peak-RSS gate for the whole soak (both legs).
        workers: Worker count of the parallel leg.
    """

    num_nodes: int = 10_000
    shard_size: int = 50
    hosts_per_rack: int = 16
    node: PowerDownSimConfig = field(default_factory=soak_node_config)
    base_seed: int = 0
    rss_ceiling_mb: float = 512.0
    workers: int = 2


@dataclass
class FleetSoakResult:
    """What the soak measured."""

    config: FleetSoakConfig
    fleet_savings: float
    parallel_savings: float | None
    bit_identical: bool
    rss_before_mb: float
    peak_rss_mb: float
    within_ceiling: bool
    serial_wall_s: float
    parallel_wall_s: float | None
    nodes_ok: int
    nodes_failed: int
    rack_report: dict[str, float]
    result_bytes: float

    @property
    def ok(self) -> bool:
        """The soak's pass/fail verdict."""
        return self.within_ceiling and self.bit_identical

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`."""
        from repro.sim.results import ExperimentRecord
        return ExperimentRecord("fleet_soak", {
            "num_nodes": self.config.num_nodes,
            "shard_size": self.config.shard_size,
            "fleet_savings": self.fleet_savings,
            "bit_identical": self.bit_identical,
            "peak_rss_mb": self.peak_rss_mb,
            "rss_ceiling_mb": self.config.rss_ceiling_mb,
            "within_ceiling": self.within_ceiling,
            "nodes_ok": self.nodes_ok,
            "nodes_failed": self.nodes_failed,
            "ok": self.ok,
            **{f"rack_{key}": value
               for key, value in self.rack_report.items()}})


class FleetSoakExperiment(SteppedExperiment):
    """Run the soak: sharded-serial, then sharded-parallel, then gate."""

    name = "fleet-soak"

    def __init__(self, config: FleetSoakConfig | None = None):
        self.config = config or FleetSoakConfig()

    def _rack_config(self) -> RackConfig:
        config = self.config
        return RackConfig(num_nodes=config.num_nodes, node=config.node,
                          base_seed=config.base_seed,
                          shard_size=config.shard_size,
                          hosts_per_rack=config.hosts_per_rack)

    # -- stepped execution -----------------------------------------------------
    # One whole fleet leg per advance (serial, then the
    # parallel-verification leg).  Wall times and RSS are measured, not
    # simulated — they are the only fields that differ between a stepped
    # and a one-shot soak.

    def begin(self) -> "FleetSoakRunState":
        """Record the starting RSS; no legs have run yet."""
        return FleetSoakRunState(rss_before_mb=peak_rss_mb())

    def advance(self, state: "FleetSoakRunState") -> bool:
        """Run one pending leg; True while more remain after."""
        config = self.config
        rack_config = self._rack_config()
        if not state.serial_done:
            start = time.perf_counter()
            serial = FleetSimulator(rack_config,
                                    ExecConfig(workers=1)).run()
            state.serial_wall_s = time.perf_counter() - start
            state.serial_savings = serial.fleet_savings
            state.rack_report = serial.rack_report()
            state.nodes_ok = len(serial.nodes)
            state.nodes_failed = len(serial.failures)
            counters = serial.exec_telemetry.get("counters", {})
            state.result_bytes = float(
                counters.get("exec.result_bytes", 0.0))
            state.serial_done = True
            return True
        if not state.parallel_done:
            # Same fleet, pool forced on even on a single-core host —
            # the identity claim is about the cross-process path.
            start = time.perf_counter()
            parallel = FleetSimulator(
                rack_config,
                ExecConfig(workers=config.workers, force_pool=True)).run()
            state.parallel_wall_s = time.perf_counter() - start
            state.parallel_savings = parallel.fleet_savings
            state.bit_identical = (state.parallel_savings
                                   == state.serial_savings)
            del parallel
            state.parallel_done = True
        return False

    def finish(self, state: "FleetSoakRunState") -> FleetSoakResult:
        """Gate on the lifetime peak RSS and assemble the verdict."""
        config = self.config
        peak = peak_rss_mb()
        return FleetSoakResult(
            config=config,
            fleet_savings=state.serial_savings,
            parallel_savings=state.parallel_savings,
            bit_identical=state.bit_identical,
            rss_before_mb=state.rss_before_mb,
            peak_rss_mb=peak,
            within_ceiling=peak <= config.rss_ceiling_mb,
            serial_wall_s=state.serial_wall_s,
            parallel_wall_s=state.parallel_wall_s,
            nodes_ok=state.nodes_ok,
            nodes_failed=state.nodes_failed,
            rack_report=state.rack_report,
            result_bytes=state.result_bytes)


@dataclass
class FleetSoakRunState:
    """Leg progress of one stepped soak."""

    rss_before_mb: float
    serial_done: bool = False
    parallel_done: bool = False
    serial_savings: float = 0.0
    serial_wall_s: float = 0.0
    rack_report: dict = field(default_factory=dict)
    nodes_ok: int = 0
    nodes_failed: int = 0
    result_bytes: float = 0.0
    parallel_savings: float | None = None
    parallel_wall_s: float | None = None
    bit_identical: bool = True


def quick_soak_config(num_nodes: int = 64) -> FleetSoakConfig:
    """A seconds-scale soak for CI and smoke tests."""
    return FleetSoakConfig(
        num_nodes=num_nodes, shard_size=8, hosts_per_rack=8,
        node=soak_node_config(duration_s=600.0, num_vms=4))


__all__ = [
    "FleetSoakConfig",
    "FleetSoakExperiment",
    "FleetSoakResult",
    "FleetSoakRunState",
    "peak_rss_mb",
    "quick_soak_config",
    "soak_node_config",
]
