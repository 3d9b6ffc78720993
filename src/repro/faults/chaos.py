"""Chaos soak: a workload replayed under an escalating fault schedule.

:class:`ChaosSoakExperiment` drives one deterministic workload —
allocation, mixed read/write batches, self-refresh entry and wake,
VM churn with background consolidation, MPSM reactivation — through a
fully armed :class:`~repro.faults.injector.FaultInjector`, once per
escalation level (each level halves every fault's period).  After every
injected migration abort the end-state is cross-checked against
:class:`~repro.core.checker.ConsistencyChecker`'s invariants, and the
campaign's :class:`~repro.faults.injector.ReliabilityReport` carries the
audit tally: the soak passes only with **zero** violations and zero
data-loss events across every level.

Registered as ``chaos`` in :data:`repro.sim.experiments.EXPERIMENTS`
and surfaced by the ``repro chaos`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.checkpoint import SteppedExperiment
from repro.core.checker import ConsistencyChecker
from repro.core.config import DtlConfig, small_dtl_config
from repro.core.controller import DtlController, VmHandle
from repro.cxl.link import CxlLinkConfig
from repro.exec.hashing import derive_seed
from repro.faults.hooks import HookPoint
from repro.faults.injector import FaultInjector, ReliabilityReport
from repro.faults.plan import (CxlLinkFault, EccFault, FaultPlan,
                               MigrationAbortFault, PowerExitFault,
                               SmcCorruptionFault)
from repro.seeded import SeededConfig
from repro.units import MIB

#: Safety bound on drain pumping: an injector can abort copies, but every
#: abort spec is fire-capped, so a drain that needs more steps than this
#: is a livelock and is reported as a violation instead of hanging.
DRAIN_STEP_LIMIT = 100_000

# The soak's cadence, which the server's shards share (repro.server.shards).
#: Simulated time per access.
ACCESS_PERIOD_NS = 100.0
#: Background-migration cachelines granted after each access batch.
PUMP_LINES = 8
#: Cachelines granted per pump step while draining to quiescence.
DRAIN_PUMP_LINES = 16


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
        write_fraction: Fraction of accesses that are writes.
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
    write_fraction: float = 0.25
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
        """True when the DTL survived: no violations, no data loss."""
        return (not self.report.checker_violations
                and self.report.data_loss_events == 0)

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
            "data_loss_events": report.data_loss_events,
            "checker_audits": report.checker_audits,
            "checker_violations": len(report.checker_violations),
            "first_violations": report.checker_violations[:10],
            "ok": self.ok,
        }
        for point, count in sorted(report.injected.items()):
            metrics[f"injected.{point}"] = count
        return ExperimentRecord("chaos", metrics,
                                {"checker_violations": 0,
                                 "data_loss_events": 0})


class _Clock:
    """Monotonic simulated time for the soak (ns, with an s view)."""

    def __init__(self):
        self.now_ns = 0.0

    @property
    def now_s(self) -> float:
        return self.now_ns / 1e9

    def advance(self, accesses: int) -> None:
        self.now_ns += accesses * ACCESS_PERIOD_NS


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
    # controller, injector, and RNG (from the level plan's name), so a
    # checkpoint between levels carries only the completed reports.

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
        controller = DtlController(cfg.dtl)
        injector = FaultInjector(plan, registry=controller.metrics,
                                 trace=controller.trace,
                                 link=CxlLinkConfig())
        controller.arm_faults(injector)
        checker = ConsistencyChecker(controller)
        rng = np.random.default_rng(derive_seed(cfg.seed, plan.name))
        clock = _Clock()
        audits = 0
        violations: list[str] = []

        def audit() -> None:
            nonlocal audits
            audits += 1
            # In-flight migrations legitimately double-allocate their
            # segment on one channel, so balance is audited to within
            # the tracked-request count (exact once drained).
            tolerance = controller.migration.pending_count()
            outcome = checker.audit(balance_tolerance=tolerance)
            violations.extend(outcome.violations)

        hot = controller.allocate_vm(0, 8 * MIB, now_s=clock.now_s)
        cold = controller.allocate_vm(1, 8 * MIB, now_s=clock.now_s)
        churn = controller.allocate_vm(2, 8 * MIB, now_s=clock.now_s)
        audit()

        # Phase 1 — warm both working sets (CXL/ECC/SMC faults fire
        # inside the vectorised batches, scheduled by the injector).
        self._drive(controller, hot, rng, clock)
        self._drive(controller, cold, rng, clock)
        audit()

        # Phase 2 — let the cold VM's ranks go quiet until self-refresh
        # entry (profiling threshold is shrunk in the config).
        quiet_batches = int(cfg.dtl.profiling_threshold_ns
                            // (cfg.batch_size * ACCESS_PERIOD_NS)) + 4
        self._drive(controller, hot, rng, clock, batches=quiet_batches)
        audit()

        # Phase 3 — touch the cold VM again: any rank that entered
        # self-refresh wakes through the sr.exit hook.
        self._drive(controller, cold, rng, clock, batches=4)
        audit()

        # Phase 4 — churn: deallocate a VM, let the power-down policy
        # consolidate in the background, and audit after every injected
        # migration abort.
        controller.deallocate_vm(churn, now_s=clock.now_s)
        audit()
        aborts_seen = injector.injected(HookPoint.MIGRATION_COPY)
        for _ in range(4 * cfg.batches_per_phase):
            self._drive(controller, hot, rng, clock, batches=1)
            controller.pump_migrations(clock.now_s, lines=PUMP_LINES)
            aborts = injector.injected(HookPoint.MIGRATION_COPY)
            if aborts > aborts_seen:
                aborts_seen = aborts
                audit()
        steps = 0
        while controller.migration.pending_count():
            steps += 1
            if steps > DRAIN_STEP_LIMIT:
                violations.append(
                    f"migration drain exceeded {DRAIN_STEP_LIMIT} pump "
                    "steps under fault injection")
                break
            controller.pump_migrations(clock.now_s, lines=DRAIN_PUMP_LINES)
            clock.advance(1)
            aborts = injector.injected(HookPoint.MIGRATION_COPY)
            if aborts > aborts_seen:
                aborts_seen = aborts
                audit()
        audit()

        # Phase 5 — a large allocation forces MPSM reactivation (the
        # power.mpsm_exit hook) and one more full-pressure access pass.
        big = controller.allocate_vm(3, 64 * MIB, now_s=clock.now_s)
        audit()
        self._drive(controller, big, rng, clock, batches=2)
        self._drive(controller, hot, rng, clock, batches=2)
        controller.end_window()
        audit()

        snapshot = controller.telemetry_snapshot(now_s=clock.now_s)
        report = injector.report()
        report.checker_audits = audits
        report.checker_violations = violations
        controller.disarm_faults()
        return report, snapshot.to_dict()

    # -- workload helpers --------------------------------------------------------

    def _drive(self, controller: DtlController, vm: VmHandle,
               rng: np.random.Generator, clock: _Clock,
               batches: int | None = None) -> None:
        """Run mixed read/write batches against one VM's reservation."""
        cfg = self.config
        for _ in range(batches if batches is not None
                       else cfg.batches_per_phase):
            hpas = self._hpas(controller, vm, rng, cfg.batch_size)
            writes = rng.random(cfg.batch_size) < cfg.write_fraction
            controller.access_batch(vm.host_id, hpas, writes,
                                    now_ns=clock.now_ns)
            clock.advance(cfg.batch_size)
            controller.tick(clock.now_ns)
            controller.end_window()

    def _hpas(self, controller: DtlController, vm: VmHandle,
              rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` random host-local HPAs inside ``vm``'s AUs."""
        au_ids = np.asarray(vm.au_ids, dtype=np.int64)
        picks = rng.integers(0, len(au_ids), size=count)
        offsets = rng.integers(
            0, controller.host_layout.segments_per_au, size=count)
        lines = rng.integers(
            0, controller.geometry.segment_bytes // 64, size=count)
        return np.array(
            [controller.hpa_of(int(au_ids[pick]), int(offset),
                               int(line) * 64)
             for pick, offset, line in zip(picks, offsets, lines)],
            dtype=np.int64)


__all__ = ["DRAIN_STEP_LIMIT", "ACCESS_PERIOD_NS", "PUMP_LINES",
           "DRAIN_PUMP_LINES", "ChaosRunState", "ChaosSoakConfig",
           "ChaosSoakResult", "ChaosSoakExperiment"]
