"""One-call validation of the synthetic workloads against the paper.

The whole reproduction leans on the synthetic CloudSuite stand-ins
matching the paper's published characteristics.  This module bundles the
checks into a single report so any re-calibration (or a new workload
profile) can be validated at once:

* **MAPKI** against Table 4,
* **large-stride share** against Figure 9's qualitative classes,
* **cold-segment fractions** at 2 MB and 4 MB against Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.units import GIB
from repro.workloads.cloudsuite import (PROFILES, SEGMENT_BYTES,
                                        TRACED_BENCHMARKS, TraceGenerator,
                                        WorkloadProfile)

#: Table 4 reference values.
PAPER_MAPKI = {
    "data-analytics": 1.9, "data-caching": 1.5, "data-serving": 4.2,
    "django-workload": 0.8, "fb-oss-performance": 3.6,
    "graph-analytics": 6.5, "in-memory-analytics": 2.5,
    "media-streaming": 4.6, "web-search": 0.7, "web-serving": 0.7,
}

#: Figure 10 averages.
PAPER_COLD_2MB = 0.615
PAPER_COLD_4MB = 0.332

#: Figure 9's narrow-standalone-stride benchmarks.
NARROW_STRIDE_BENCHMARKS = ("data-serving", "media-streaming",
                            "web-serving")


@dataclass
class WorkloadCheck:
    """Measured characteristics of one workload's generated trace."""

    name: str
    mapki: float
    mapki_target: float
    large_stride_share: float
    cold_2mb: float
    cold_4mb: float

    @property
    def mapki_error(self) -> float:
        """Relative MAPKI error vs Table 4."""
        return abs(self.mapki - self.mapki_target) / self.mapki_target


@dataclass
class ValidationReport:
    """Aggregate validation outcome."""

    checks: list[WorkloadCheck] = field(default_factory=list)

    @property
    def mean_cold_2mb(self) -> float:
        """Fleet-average cold fraction at 2 MB (paper: 61.5 %)."""
        return float(np.mean([check.cold_2mb for check in self.checks]))

    @property
    def mean_cold_4mb(self) -> float:
        """Fleet-average cold fraction at 4 MB (paper: 33.2 %)."""
        return float(np.mean([check.cold_4mb for check in self.checks]))

    @property
    def max_mapki_error(self) -> float:
        """Worst relative MAPKI error across workloads."""
        return max(check.mapki_error for check in self.checks)

    def problems(self, mapki_tolerance: float = 0.10,
                 cold_band: float = 0.10) -> list[str]:
        """Human-readable list of calibration violations (empty = good)."""
        issues = []
        for check in self.checks:
            if check.mapki_error > mapki_tolerance:
                issues.append(
                    f"{check.name}: MAPKI {check.mapki:.2f} vs "
                    f"{check.mapki_target:.1f}")
            narrow = check.name in NARROW_STRIDE_BENCHMARKS
            if narrow and check.large_stride_share > 0.45:
                issues.append(f"{check.name}: narrow-stride benchmark has "
                              f"{check.large_stride_share:.0%} large strides")
            if not narrow and check.large_stride_share < 0.45:
                issues.append(f"{check.name}: wide-stride benchmark has "
                              f"only {check.large_stride_share:.0%} "
                              "large strides")
        if abs(self.mean_cold_2mb - PAPER_COLD_2MB) > cold_band:
            issues.append(f"mean cold@2MB {self.mean_cold_2mb:.1%} vs "
                          f"paper {PAPER_COLD_2MB:.1%}")
        if abs(self.mean_cold_4mb - PAPER_COLD_4MB) > cold_band:
            issues.append(f"mean cold@4MB {self.mean_cold_4mb:.1%} vs "
                          f"paper {PAPER_COLD_4MB:.1%}")
        return issues


def check_workload(profile: WorkloadProfile, footprint_bytes: int = 2 * GIB,
                   target_instructions: float = 120e6,
                   seed: int = 0) -> WorkloadCheck:
    """Generate one trace and measure its calibration metrics."""
    generator = TraceGenerator(profile, footprint_bytes=footprint_bytes,
                               seed=seed)
    accesses = max(1000, int(target_instructions * profile.mapki / 1000))
    trace = generator.generate(accesses)
    distribution = trace.stride_distribution()
    return WorkloadCheck(
        name=profile.name,
        mapki=trace.mapki,
        mapki_target=PAPER_MAPKI[profile.name],
        large_stride_share=distribution.get(">=4194304", 0.0),
        cold_2mb=trace.cold_segment_fraction(
            SEGMENT_BYTES, total_segments=generator.num_segments),
        cold_4mb=trace.cold_segment_fraction(
            2 * SEGMENT_BYTES, total_segments=generator.num_segments // 2))


def validate_workloads(names: tuple[str, ...] = TRACED_BENCHMARKS,
                       footprint_bytes: int = 2 * GIB,
                       target_instructions: float = 120e6,
                       seed: int = 0) -> ValidationReport:
    """Validate every named workload (workload ``i`` draws its trace
    from ``seed + i``); returns the aggregate report."""
    report = ValidationReport()
    for index, name in enumerate(names):
        report.checks.append(check_workload(
            PROFILES[name], footprint_bytes=footprint_bytes,
            target_instructions=target_instructions, seed=seed + index))
    return report


__all__ = [
    "PAPER_MAPKI",
    "PAPER_COLD_2MB",
    "PAPER_COLD_4MB",
    "NARROW_STRIDE_BENCHMARKS",
    "WorkloadCheck",
    "ValidationReport",
    "check_workload",
    "validate_workloads",
]
