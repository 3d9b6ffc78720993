"""Top-level DTL configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.addressing import DEFAULT_AU_BYTES
from repro.core.segment_cache import SegmentCacheConfig
from repro.dram.geometry import DramGeometry, PAPER_1TB_GEOMETRY
from repro.errors import ConfigurationError
from repro.units import MIB, NS_PER_MS

#: Self-refresh access-count window (0.5 ms, Section 3.4).
DEFAULT_WINDOW_NS = NS_PER_MS // 2
#: Quiet time required before a victim rank migrates + sleeps (50 ms).
DEFAULT_PROFILING_THRESHOLD_NS = 50 * NS_PER_MS
#: TSP entries examined per search; the paper bounds the search at 40 ns,
#: which at one SRAM probe per 1.5 GHz cycle is 60 entries.
DEFAULT_TSP_SCAN_LIMIT = 60


@dataclass(frozen=True)
class DtlConfig:
    """Everything needed to instantiate a :class:`~repro.core.controller.DtlController`.

    Attributes:
        geometry: DRAM geometry behind the CXL controller.
        au_bytes: Allocation-unit size (2 GiB default).
        cache: Segment mapping cache sizing.
        enable_power_down: Run the rank-level power-down policy.
        enable_self_refresh: Run the hotness-aware self-refresh policy.
        group_granularity: Rank-groups transitioned together (2 models the
            paper's CKE-pair constraint, Section 5.1).
        min_active_groups: Rank-groups that must always stay in standby.
        window_ns: Self-refresh access-count window (0.5 ms).
        profiling_threshold_ns: Quiet time required before migrating (50 ms).
        tsp_scan_limit: CLOCK-scan bound per TSP search.
        sr_victim_granularity: Ranks per self-refresh victim unit (2 models
            the CKE-pair constraint of the paper's testbed).
        policy: Registered policy driving victim selection, hotness
            prediction, and demotion depth for both power subsystems
            (see :func:`repro.policies.available_policies`; "paper" is
            the published behaviour).
    """

    geometry: DramGeometry = PAPER_1TB_GEOMETRY
    au_bytes: int = DEFAULT_AU_BYTES
    cache: SegmentCacheConfig = field(default_factory=SegmentCacheConfig)
    enable_power_down: bool = True
    enable_self_refresh: bool = True
    group_granularity: int = 1
    min_active_groups: int = 1
    window_ns: int = DEFAULT_WINDOW_NS
    profiling_threshold_ns: int = DEFAULT_PROFILING_THRESHOLD_NS
    tsp_scan_limit: int = DEFAULT_TSP_SCAN_LIMIT
    sr_victim_granularity: int = 1
    #: When True, consolidation copies use idle bandwidth granted through
    #: DtlController.pump_migrations(); MPSM entry waits for completion.
    background_migration: bool = False
    #: Ablation switch: False disables the CLOCK migration-table planner,
    #: so self-refresh relies on naturally quiet ranks only.
    sr_planning: bool = True
    policy: str = "paper"

    def __post_init__(self) -> None:
        if self.au_bytes % self.geometry.segment_bytes:
            raise ConfigurationError(
                "AU size must be a multiple of the segment size")
        segments_per_au = self.au_bytes // self.geometry.segment_bytes
        if segments_per_au % self.geometry.channels:
            raise ConfigurationError(
                "an AU must split evenly across channels")


def small_dtl_config(policy: str = "paper") -> DtlConfig:
    """The seconds-scale controller the chaos soak and the server run.

    A 128 MiB device (2 channels x 4 ranks of 16 MiB, 128 KiB segments,
    1 MiB AUs) with background consolidation and a 0.2 ms profiling
    threshold, so self-refresh entry and wake, consolidation and MPSM
    reactivation all happen within a soak or a server session.
    """
    return DtlConfig(
        geometry=DramGeometry(channels=2, ranks_per_channel=4,
                              rank_bytes=16 * MIB,
                              segment_bytes=128 * 1024),
        au_bytes=1 * MIB,
        profiling_threshold_ns=200_000,
        background_migration=True,
        policy=policy)


__all__ = ["DEFAULT_WINDOW_NS", "DEFAULT_PROFILING_THRESHOLD_NS",
           "DEFAULT_TSP_SCAN_LIMIT", "DtlConfig", "small_dtl_config"]
