"""DDR4-like timing parameters and simple latency helpers.

The reproduction does not run a cycle-accurate DRAM model; experiments use
the paper's measured end-to-end latencies (Table 1: 121 ns native DRAM,
210 ns CXL).  This module nevertheless provides the standard DDR4-2933
timing set so that the row-buffer-aware latency estimator used by unit
tests and the performance model has concrete numbers to work with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import CACHELINE_BYTES

#: Table 1 — measured end-to-end latencies.
NATIVE_DRAM_LATENCY_NS = 121.0
CXL_MEMORY_LATENCY_NS = 210.0


@dataclass(frozen=True)
class DramTiming:
    """Core DDR4 timing parameters (defaults model DDR4-2933).

    Attributes:
        clock_mhz: I/O bus clock in MHz (data rate is 2x).
        t_rcd_ns: ACT-to-READ/WRITE delay.
        t_rp_ns: Precharge time.
        t_cas_ns: CAS (column access) latency.
        t_rfc_ns: Refresh cycle time for one refresh command.
        t_refi_ns: Average refresh interval.
        burst_length: Beats per burst (8 for DDR4).
    """

    clock_mhz: float = 1466.5
    t_rcd_ns: float = 14.32
    t_rp_ns: float = 14.32
    t_cas_ns: float = 14.32
    t_rfc_ns: float = 350.0
    t_refi_ns: float = 7800.0
    burst_length: int = 8

    @property
    def data_rate_mts(self) -> float:
        """Data rate in mega-transfers per second (DDR: 2x clock)."""
        return 2.0 * self.clock_mhz

    @property
    def channel_peak_bandwidth_gbs(self) -> float:
        """Peak bandwidth of one 64-bit channel in GB/s."""
        return self.data_rate_mts * 8 / 1000.0

    @property
    def burst_time_ns(self) -> float:
        """Time to transfer one burst (a 64 B cacheline on a 64-bit bus)."""
        return self.burst_length / (self.data_rate_mts / 1000.0) / 2.0

    def row_hit_latency_ns(self) -> float:
        """Device latency for a row-buffer hit."""
        return self.t_cas_ns + self.burst_time_ns

    def row_miss_latency_ns(self) -> float:
        """Device latency for a row-buffer miss (closed row)."""
        return self.t_rcd_ns + self.t_cas_ns + self.burst_time_ns

    def row_conflict_latency_ns(self) -> float:
        """Device latency for a row-buffer conflict (precharge first)."""
        return self.t_rp_ns + self.t_rcd_ns + self.t_cas_ns + self.burst_time_ns

    def refresh_overhead_fraction(self) -> float:
        """Fraction of time a rank is unavailable due to refresh."""
        return self.t_rfc_ns / self.t_refi_ns

    def transfer_time_ns(self, num_bytes: int) -> float:
        """Pure data-transfer time for ``num_bytes`` over one channel."""
        lines = (num_bytes + CACHELINE_BYTES - 1) // CACHELINE_BYTES
        return lines * self.burst_time_ns


DDR4_2933 = DramTiming()


def md1_wait_ns(rho: float, service_ns: float) -> float:
    """M/D/1 mean wait at utilisation ``rho`` (callers cap it below 1)."""
    return service_ns * rho / (2.0 * (1.0 - rho))


__all__ = [
    "NATIVE_DRAM_LATENCY_NS",
    "CXL_MEMORY_LATENCY_NS",
    "md1_wait_ns",
    "DramTiming",
    "DDR4_2933",
]
