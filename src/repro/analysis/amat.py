"""Average memory access time model (Section 6.1).

Implements the paper's equations (1) and (2):

``AMAT_CXL = CXL_mem_lat + Addr_translation``

``Addr_translation = L1_SMC_hit_time + L1_SMC_miss_ratio x
(L2_SMC_hit_time + L2_SMC_miss_ratio x L2_SMC_miss_penalty)``

With the paper's constants (1-cycle L1 / 7-cycle L2 at 1.5 GHz, miss
ratios 14.7 % / 15.4 %, and a miss penalty of two SRAM accesses plus one
DRAM access) the model yields a 4.2 ns average translation overhead and a
214.2 ns AMAT, inflating CloudSuite execution time by only 0.18 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.segment_cache import SegmentCacheConfig, cycles_to_ns
from repro.core.translation import SRAM_ACCESS_CYCLES
from repro.dram.timing import CXL_MEMORY_LATENCY_NS, NATIVE_DRAM_LATENCY_NS

#: SMC miss ratios the paper measured in simulation (Section 6.1).
PAPER_L1_SMC_MISS_RATIO = 0.147
PAPER_L2_SMC_MISS_RATIO = 0.154


@dataclass(frozen=True)
class AmatModel:
    """Parameterised Section 6.1 AMAT model.

    Attributes:
        cache: SMC latencies (Table 3 / Section 6.1 defaults).
        l1_miss_ratio: L1 SMC miss ratio.
        l2_miss_ratio: L2 SMC miss ratio (local, i.e. of L2 lookups).
        table_dram_latency_ns: Latency of the segment-mapping-table DRAM
            access on the full miss path.
        cxl_latency_ns: Vanilla CXL memory access latency (Table 1).
    """

    cache: SegmentCacheConfig = SegmentCacheConfig()
    l1_miss_ratio: float = PAPER_L1_SMC_MISS_RATIO
    l2_miss_ratio: float = PAPER_L2_SMC_MISS_RATIO
    table_dram_latency_ns: float = NATIVE_DRAM_LATENCY_NS
    cxl_latency_ns: float = CXL_MEMORY_LATENCY_NS

    @property
    def miss_penalty_ns(self) -> float:
        """Full miss path: two SRAM accesses + one DRAM access."""
        sram_ns = cycles_to_ns(2 * SRAM_ACCESS_CYCLES)
        return sram_ns + self.table_dram_latency_ns

    def translation_overhead_ns(self) -> float:
        """Equation (2): average address-translation latency."""
        return self.cache.l1_hit_ns + self.l1_miss_ratio * (
            self.cache.l2_hit_ns
            + self.l2_miss_ratio * self.miss_penalty_ns)

    def amat_ns(self) -> float:
        """Equation (1): CXL AMAT including translation."""
        return self.cxl_latency_ns + self.translation_overhead_ns()

    def max_overhead_ns(self) -> float:
        """Worst case: every lookup walks the full miss path."""
        return (self.cache.l1_hit_ns + self.cache.l2_hit_ns
                + self.miss_penalty_ns)

    def min_overhead_ns(self) -> float:
        """Best case: every lookup hits the L1 SMC."""
        return self.cache.l1_hit_ns

    def execution_time_overhead(self, memory_stall_share: float = 0.09) -> float:
        """Fractional execution-time increase from translation.

        The AMAT grows by ``overhead / cxl_latency``; only the memory-stall
        share of execution time scales with it.  CloudSuite's low MAPKI
        (Table 4) puts that share around 9 %, which reproduces the paper's
        0.18 % figure.
        """
        return (self.translation_overhead_ns()
                / self.cxl_latency_ns) * memory_stall_share


__all__ = [
    "PAPER_L1_SMC_MISS_RATIO",
    "PAPER_L2_SMC_MISS_RATIO",
    "AmatModel",
]
