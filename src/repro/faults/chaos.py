"""Chaos soak: a workload replayed under an escalating fault schedule.

:class:`ChaosSoakExperiment` drives one deterministic workload —
allocation, mixed read/write batches, self-refresh entry and wake,
VM churn with background consolidation, MPSM reactivation — through a
fully armed :class:`~repro.faults.injector.FaultInjector`, once per
escalation level (each level halves every fault's period).

The soak is a scripted client of the server's
:class:`~repro.server.shards.ControllerShard`: the shard owns the
clock, the pump and drain cadence, and the
:class:`~repro.core.checker.ConsistencyChecker` audits after every
injected migration abort; the soak adds one at each phase boundary.
The campaign's :class:`~repro.faults.injector.ReliabilityReport`
carries the audit tally: the soak passes only with **zero** violations
across every level.

Registered as ``chaos`` in :data:`repro.sim.experiments.EXPERIMENTS`
and surfaced by the ``repro chaos`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.checkpoint import SteppedExperiment
from repro.core.config import DtlConfig, small_dtl_config
from repro.core.controller import VmHandle
from repro.exec.hashing import derive_seed
from repro.faults.injector import ReliabilityReport
from repro.faults.plan import (CxlLinkFault, EccFault, FaultPlan,
                               MigrationAbortFault, PowerExitFault,
                               SmcCorruptionFault)
from repro.seeded import SeededConfig
from repro.server.shards import ACCESS_PERIOD_NS, ControllerShard
from repro.units import MIB

#: Fraction of the soak's accesses that are writes.
WRITE_FRACTION = 0.25


@dataclass(frozen=True)
class ChaosSoakConfig(SeededConfig):
    """Configuration of one chaos soak campaign.

    Attributes:
        seed: Drives the workload RNG and names the plan; one integer
            reproduces the whole campaign bit-for-bit.
        levels: Escalation levels; level ``k`` runs the base plan with
            every fault period divided by ``2**k``.
        batches_per_phase: Access batches in each workload phase.
        batch_size: Accesses per batch.
        dtl: The controller the soak runs against; by default the
            seconds-scale device the server runs
            (:func:`~repro.core.config.small_dtl_config`), whose shrunk
            profiling threshold lets the soak reach SR entry and wake.
            Faults must compose with every policy, not just the
            paper's: ``small_dtl_config("adaptive")`` arms another.
    """

    seed: int = 0
    levels: int = 3
    batches_per_phase: int = 8
    batch_size: int = 64
    dtl: DtlConfig = field(default_factory=small_dtl_config)

    def base_plan(self) -> FaultPlan:
        """The level-0 fault schedule (every spec kind, spread out)."""
        return FaultPlan(seed=self.seed, name=f"chaos-{self.seed}", specs=(
            CxlLinkFault(start=7, period=97, retries=2, backoff_ns=40.0),
            CxlLinkFault(start=31, period=211, kind="stall",
                         stall_ns=400.0),
            EccFault(start=11, period=173, bits=1),
            EccFault(start=301, period=907, bits=2),
            SmcCorruptionFault(start=53, period=307),
            MigrationAbortFault(start=0, period=3, max_fires=4),
            PowerExitFault(target="mpsm", period=2, kind="delay",
                           delay_ns=800.0),
            PowerExitFault(target="sr", period=2, kind="fail",
                           delay_ns=1200.0, failures=2),
        ))


@dataclass
class ChaosSoakResult:
    """Outcome of one campaign (all levels)."""

    config: ChaosSoakConfig
    report: ReliabilityReport
    level_reports: list[ReliabilityReport] = field(default_factory=list)
    snapshot: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the DTL survived: no checker violations."""
        return not self.report.checker_violations

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`."""
        from repro.sim.results import ExperimentRecord
        report = self.report
        metrics: dict[str, Any] = {
            "levels": self.config.levels,
            "faults_injected": report.injected_total,
            "faults_detected": report.detected,
            "faults_recovered": report.recovered,
            "ecc_corrected": report.ecc_corrected,
            "ecc_uncorrected": report.ecc_uncorrected,
            "power_exit_failures": report.power_exit_failures,
            "checker_audits": report.checker_audits,
            "checker_violations": len(report.checker_violations),
            "first_violations": report.checker_violations[:10],
            "ok": self.ok,
        }
        for point, count in sorted(report.injected.items()):
            metrics[f"injected.{point}"] = count
        return ExperimentRecord("chaos", metrics, {"checker_violations": 0})


@dataclass
class ChaosRunState:
    """Level progress of one stepped chaos campaign."""

    base: FaultPlan
    reports: list[ReliabilityReport] = field(default_factory=list)
    snapshot: dict[str, Any] = field(default_factory=dict)
    level: int = 0


class ChaosSoakExperiment(SteppedExperiment):
    """Escalating fault-injection soak over the full DTL datapath."""

    name = "chaos"

    def __init__(self, config: ChaosSoakConfig | None = None):
        self.config = config if config is not None else ChaosSoakConfig()

    # -- stepped execution -------------------------------------------------------
    # One escalation level per advance.  Each level builds its own fresh
    # shard and RNG (from the level plan's name), so a checkpoint
    # between levels carries only the completed reports.

    def begin(self) -> "ChaosRunState":
        """Derive the level-0 plan; no levels have run yet."""
        return ChaosRunState(base=self.config.base_plan())

    def advance(self, state: "ChaosRunState") -> bool:
        """Run one escalation level; True while more remain after."""
        if state.level >= self.config.levels:
            return False
        report, snapshot = self._run_level(
            state.base.escalated(state.level))
        state.reports.append(report)
        state.snapshot = snapshot
        state.level += 1
        return state.level < self.config.levels

    def finish(self, state: "ChaosRunState") -> ChaosSoakResult:
        """Combine the level reports into the campaign verdict."""
        combined = ReliabilityReport.combine(state.reports)
        combined.plan_name = state.base.name
        return ChaosSoakResult(config=self.config, report=combined,
                               level_reports=state.reports,
                               snapshot=state.snapshot)

    # -- one level ---------------------------------------------------------------

    def _run_level(self, plan: FaultPlan,
                   ) -> tuple[ReliabilityReport, dict[str, Any]]:
        cfg = self.config
        shard = ControllerShard(0, cfg.dtl, fault_plan=plan)
        rng = np.random.default_rng(derive_seed(cfg.seed, plan.name))

        hot = shard.apply_allocate(0, 8 * MIB)
        cold = shard.apply_allocate(1, 8 * MIB)
        churn = shard.apply_allocate(2, 8 * MIB)
        shard.audit()

        # Phase 1 — warm both working sets (CXL/ECC/SMC faults fire
        # inside the vectorised batches, scheduled by the injector).
        self._drive(shard, hot, rng)
        self._drive(shard, cold, rng)
        shard.audit()

        # Phase 2 — let the cold VM's ranks go quiet until self-refresh
        # entry (profiling threshold is shrunk in the config).
        quiet_batches = int(cfg.dtl.profiling_threshold_ns
                            // (cfg.batch_size * ACCESS_PERIOD_NS)) + 4
        self._drive(shard, hot, rng, batches=quiet_batches)
        shard.audit()

        # Phase 3 — touch the cold VM again: any rank that entered
        # self-refresh wakes through the sr.exit hook.
        self._drive(shard, cold, rng, batches=4)
        shard.audit()

        # Phase 4 — churn: free a VM, let the power-down policy
        # consolidate in the background (the shard pumps after every
        # batch and audits after every injected migration abort), then
        # drain to quiescence.
        shard.apply_free(churn)
        shard.audit()
        self._drive(shard, hot, rng, batches=4 * cfg.batches_per_phase)
        shard.drain_migrations()
        shard.audit()

        # Phase 5 — a large allocation forces MPSM reactivation (the
        # power.mpsm_exit hook) and one more full-pressure access pass.
        big = shard.apply_allocate(3, 64 * MIB)
        shard.audit()
        self._drive(shard, big, rng, batches=2)
        self._drive(shard, hot, rng, batches=2)
        shard.controller.end_window()
        shard.audit()

        report = shard.injector.report()
        report.checker_audits = shard.audits
        report.checker_violations = shard.violations
        return report, shard.apply_stats()

    # -- workload helpers --------------------------------------------------------

    def _drive(self, shard: ControllerShard, vm: VmHandle,
               rng: np.random.Generator, batches: int | None = None) -> None:
        """Run mixed read/write batches at random lines of ``vm``'s
        segments."""
        cfg = self.config
        count = cfg.batch_size
        per_au = shard.controller.host_layout.segments_per_au
        lines_per_segment = shard.controller.geometry.segment_bytes // 64
        for _ in range(batches if batches is not None
                       else cfg.batches_per_phase):
            picks = rng.integers(0, len(vm.au_ids), size=count)
            offsets = rng.integers(0, per_au, size=count)
            lines = rng.integers(0, lines_per_segment, size=count)
            writes = rng.random(count) < WRITE_FRACTION
            shard.apply_access_batch(vm, picks * per_au + offsets, lines,
                                     writes)


__all__ = ["ChaosRunState", "ChaosSoakConfig", "ChaosSoakResult",
           "ChaosSoakExperiment"]
