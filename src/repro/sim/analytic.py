"""The paper's closed-form rows as registered experiments.

Figures 1, 2 and 5, Tables 5/6 with the Section 6.1 AMAT, and the
Table 4 / Figure 9-10 workload calibration simulate nothing: each is one
function of an :class:`AnalyticConfig` returning the row's result, and
:class:`AnalyticExperiment` gives any of them the registry's surface
(``run()`` plus a one-step ``begin`` / ``advance`` / ``finish``), so they
reach a record, the result cache, ``--workers``, ``--checkpoint`` and
``with_seed`` the way the simulators do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.analysis.amat import AmatModel
from repro.analysis.area_power import CONTROLLER_384GB, CONTROLLER_4TB
from repro.analysis.structures import MODEL_384GB, MODEL_4TB
from repro.checkpoint import SteppedExperiment
from repro.host.scheduler import VmScheduler
from repro.seeded import SeededConfig
from repro.sim.perf_model import PerformanceModel
from repro.sim.results import ExperimentRecord
from repro.workloads.azure import generate_vm_trace
from repro.workloads.validation import (PAPER_COLD_2MB, PAPER_COLD_4MB,
                                        ValidationReport, validate_workloads)


@dataclass(frozen=True)
class AnalyticConfig(SeededConfig):
    """The one config of every analytic row: ``seed`` seeds whatever the
    row draws (Figure 1's VM trace, the calibration traces).  Figures 2
    and 5 and the tables are closed-form, so their records are the same
    for every seed."""

    seed: int = 0


@dataclass
class AnalyticResult:
    """A computed row: the config it was computed for and its record."""

    config: AnalyticConfig
    record: ExperimentRecord

    def to_record(self) -> ExperimentRecord:
        return self.record


@dataclass
class CalibrationResult:
    """The workload-calibration report behind ``repro validate``."""

    config: AnalyticConfig
    report: ValidationReport

    def summary_rows(self) -> list[tuple]:
        """Per-workload rows (header first) for reporting."""
        return [("workload", "MAPKI m/t", ">=4MB", "cold@2M", "cold@4M")] + [
            (check.name, f"{check.mapki:.2f}/{check.mapki_target:.1f}",
             f"{check.large_stride_share:.0%}", f"{check.cold_2mb:.0%}",
             f"{check.cold_4mb:.0%}") for check in self.report.checks]

    def to_record(self) -> ExperimentRecord:
        problems = self.report.problems()
        return ExperimentRecord("validate", {
            "max_mapki_error": self.report.max_mapki_error,
            "mean_cold_2mb": self.report.mean_cold_2mb,
            "mean_cold_4mb": self.report.mean_cold_4mb,
            "problems": problems,
            "ok": not problems},
            {"mean_cold_2mb": PAPER_COLD_2MB, "mean_cold_4mb": PAPER_COLD_4MB})


def fig1_row(config: AnalyticConfig) -> AnalyticResult:
    result = VmScheduler().run(generate_vm_trace(seed=config.seed))
    fractions = [sample.memory_fraction(result.config.memory_bytes)
                 for sample in result.samples]
    return AnalyticResult(config, ExperimentRecord(
        "fig1", {"mean_usage": float(np.mean(fractions)),
                 "peak_usage": max(fractions),
                 "vms_admitted": result.admitted},
        {"mean_usage": "<0.5"}))


def fig2_row(config: AnalyticConfig) -> AnalyticResult:
    model = PerformanceModel()
    return AnalyticResult(config, ExperimentRecord(
        "fig2", {f"slowdown_{ranks}ranks":
                 model.mean_rank_sweep_slowdown(ranks)
                 for ranks in (8, 6, 4, 2)},
        {"slowdown_2ranks": 0.007}))


def fig5_row(config: AnalyticConfig) -> AnalyticResult:
    model = PerformanceModel()
    return AnalyticResult(config, ExperimentRecord(
        "fig5", {"local": model.mean_interleaving_slowdown(cxl=False),
                 "cxl": model.mean_interleaving_slowdown(cxl=True)},
        {"local": 0.017, "cxl": 0.014}))


def tables_row(config: AnalyticConfig) -> AnalyticResult:
    amat = AmatModel()
    return AnalyticResult(config, ExperimentRecord("tables", {
        "table5_384gb": MODEL_384GB.report(),
        "table5_4tb": MODEL_4TB.report(),
        "table6_384gb": CONTROLLER_384GB.report(),
        "table6_4tb": CONTROLLER_4TB.report(),
        "translation_overhead_ns": amat.translation_overhead_ns(),
        "amat_ns": amat.amat_ns()},
        {"translation_overhead_ns": 4.2, "amat_ns": 214.2}))


def validate_row(config: AnalyticConfig) -> CalibrationResult:
    return CalibrationResult(config, validate_workloads(seed=config.seed))


#: Registry name -> (row function, ``repro exp --list`` summary).
ANALYTIC_ROWS: dict[str, tuple[Callable[[AnalyticConfig], Any], str]] = {
    "fig1": (fig1_row, "Azure schedule memory usage (Figure 1)"),
    "fig2": (fig2_row, "slowdown vs active ranks per channel (Figure 2)"),
    "fig5": (fig5_row, "rank-interleaving off: slowdown on local DRAM vs "
                       "CXL memory (Figure 5)"),
    "tables": (tables_row, "Table 5 (structure bytes), Table 6 (controller "
                           "@7nm), Section 6.1 AMAT"),
    "validate": (validate_row, "Workload calibration vs Table 4 and "
                               "Figures 9-10"),
}


@dataclass
class AnalyticRunState:
    """Run state of a one-step experiment: empty until the step ran."""

    result: Any = None


class AnalyticExperiment(SteppedExperiment):
    """One analytic row behind the stepping protocol."""

    def __init__(self, name: str, row: Callable[[AnalyticConfig], Any],
                 config: AnalyticConfig | None = None):
        self.name = name
        self.row = row
        self.config = config if config is not None else AnalyticConfig()

    def begin(self) -> AnalyticRunState:
        return AnalyticRunState()

    def advance(self, state: AnalyticRunState) -> bool:
        """The one unit of work: compute the row (once)."""
        if state.result is None:
            state.result = self.row(self.config)
        return False

    def finish(self, state: AnalyticRunState) -> Any:
        return state.result


__all__ = [
    "AnalyticConfig",
    "AnalyticResult",
    "CalibrationResult",
    "ANALYTIC_ROWS",
    "AnalyticExperiment",
]
