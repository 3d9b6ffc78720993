"""The DTL translation engine: SMC in front of the table walk.

Latency model (Section 6.1):

* L1 SMC hit: 1 cycle at 1.5 GHz.
* L1 miss, L2 hit: + 7 cycles.
* Full miss: + 2 SRAM accesses (1 cycle each) + 1 DRAM access to the
  segment mapping table (121 ns).

:meth:`TranslationEngine.measured_amat_ns` evaluates the paper's AMAT
equations (1)–(2) over the engine's own measured hit/miss ratios.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.addressing import HostAddressLayout
from repro.core.allocator import SegmentAllocator
from repro.core.segment_cache import (SegmentCacheConfig, SegmentMappingCache,
                                      cycles_to_ns)
from repro.core.tables import TranslationTables
from repro.dram.timing import NATIVE_DRAM_LATENCY_NS
from repro.telemetry import EventTrace, MetricsRegistry

SRAM_ACCESS_CYCLES = 1


@dataclass
class Translation:
    """Result of translating one HPA."""

    hpa: int
    hsn: int
    dsn: int
    dpa_offset: int
    latency_ns: float
    l1_hit: bool
    l2_hit: bool

    @property
    def smc_miss(self) -> bool:
        """True when the full table walk was taken."""
        return not (self.l1_hit or self.l2_hit)


class TranslationEngine:
    """HPA -> DPA translation with latency accounting."""

    def __init__(self, layout: HostAddressLayout,
                 tables: TranslationTables | None = None,
                 cache_config: SegmentCacheConfig | None = None,
                 table_dram_latency_ns: float = NATIVE_DRAM_LATENCY_NS,
                 registry: MetricsRegistry | None = None,
                 trace: EventTrace | None = None):
        self.layout = layout
        self.tables = tables if tables is not None else TranslationTables(layout)
        registry = registry if registry is not None else MetricsRegistry()
        self.smc = SegmentMappingCache(cache_config, registry=registry,
                                       trace=trace)
        self.table_dram_latency_ns = table_dram_latency_ns
        # :meth:`translate_hsn`'s sums by hit class, ``[l1_hit, l2_hit]``
        # (never both): one gather prices a batch bit-identically.
        config = self.smc.config
        self._class_latency_ns = np.array(
            [[config.miss_probe_ns + self.miss_penalty_ns,
              config.l1_hit_ns + config.l2_hit_ns],
             [config.l1_hit_ns, config.l1_hit_ns]])
        self._translations = registry.counter("translation.count")
        self._table_walks = registry.counter("translation.table_walks")
        self._latency_total = registry.counter("translation.latency_total_ns")
        self._latency_hist = registry.histogram("translation.latency_ns")

    @property
    def translation_count(self) -> int:
        """Translations performed (registry counter view)."""
        return self._translations.value

    @property
    def total_latency_ns(self) -> float:
        """Cumulative translation latency (registry counter view)."""
        return self._latency_total.value

    @property
    def table_walks(self) -> int:
        """Full three-level walks taken (== SMC full misses)."""
        return self._table_walks.value

    @property
    def miss_penalty_ns(self) -> float:
        """Latency of the full table walk beyond the L2 lookup."""
        sram_ns = cycles_to_ns(2 * SRAM_ACCESS_CYCLES)
        return sram_ns + self.table_dram_latency_ns

    def translate_hsn(self, hsn: int) -> tuple[int, float, bool, bool]:
        """Translate one HSN; returns ``(dsn, latency_ns, l1_hit, l2_hit)``."""
        result = self.smc.lookup(hsn)
        # hit_latency_ns charges only the SMC probes; the table-walk
        # penalty is added exactly once, below, on a full miss.
        latency_ns = self.smc.hit_latency_ns(result)
        if result.dsn is not None:
            dsn = result.dsn
        else:
            walk = self.tables.walk(hsn)
            dsn = walk.dsn
            latency_ns += self.miss_penalty_ns
            self.smc.fill(hsn, dsn)
            self._table_walks.inc()
        self._translations.inc()
        self._latency_total.inc(latency_ns)
        self._latency_hist.observe(latency_ns)
        return dsn, latency_ns, result.l1_hit, result.l2_hit

    def translate_hsn_batch(self, hsns: np.ndarray,
                            stops: Sequence[int] | None = None,
                            fires: Sequence[tuple[int, Callable]] = (),
                            ) -> tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]:
        """Vectorised :meth:`translate_hsn` over an HSN array.

        Returns ``(dsns, latencies_ns, l1_hits, l2_hits)``.  DSNs, hit
        classes, per-access latency values, cache/walk counters, and SMC
        state are identical to the scalar loop; the registry's latency
        *total* accumulates in one addition per slice (below), so it can
        differ from the sequential sum in the last ULPs (see
        docs/PERF.md).

        ``stops`` says that ``hsns`` is several batches end to end
        (their exclusive end offsets, the last one ``len(hsns)``), and
        ``fires`` are the SMC corruptions scheduled among these lookups
        (``(offset, drop)`` pairs, see
        :meth:`SegmentMappingCache.lookup_batch`): one SMC lookup serves
        them all, each fire cutting a chunk there and dropping its
        entry.  The float accumulators advance once per slice between
        consecutive stops and fires — the slicing that translating the
        batches one call at a time produces — so every counter ends
        where that leaves it.
        """
        def _resolve(hsn: int) -> int:
            return self.tables.walk(hsn).dsn

        dsns, l1_hits, l2_hits = self.smc.lookup_batch(
            hsns, _resolve, resolve_batch=self.tables.walk_batch,
            fires=fires)
        n = len(dsns)
        latencies = self._class_latency_ns[l1_hits.view(np.uint8),
                                           l2_hits.view(np.uint8)]
        walks = n - int(np.count_nonzero(l1_hits | l2_hits))
        if walks:
            self._table_walks.inc(walks)
        self._translations.inc(n)
        slices = stops or (n,)
        if fires:
            slices = sorted({*slices, *(offset + 1 for offset, _ in fires)})
        sums = []
        start = 0
        for stop in slices:
            # ``ndarray.sum``'s pairwise summation, minus its wrapper.
            total = float(np.add.reduce(latencies[start:stop]))
            self._latency_total.inc(total)
            if stop > start:
                sums.append(total)
            start = stop
        if sums:
            self._latency_hist.fold(self._latency_hist.buckets_of(latencies),
                                    sums)
        return dsns, latencies, l1_hits, l2_hits

    def translate(self, hpa: int) -> Translation:
        """Translate a full host physical address."""
        hsn = self.layout.hsn_of_hpa(hpa)
        offset = self.layout.offset_of_hpa(hpa)
        dsn, latency_ns, l1_hit, l2_hit = self.translate_hsn(hsn)
        return Translation(hpa=hpa, hsn=hsn, dsn=dsn, dpa_offset=offset,
                           latency_ns=latency_ns, l1_hit=l1_hit,
                           l2_hit=l2_hit)

    def invalidate(self, hsn: int) -> bool:
        """Invalidate the SMC entry for ``hsn`` (after a mapping update)."""
        return self.smc.invalidate(hsn)

    def invalidate_batch(self, hsns: list[int] | np.ndarray) -> int:
        """:meth:`invalidate` over ``hsns`` in order; returns how many
        entries were resident (see
        :meth:`SegmentMappingCache.invalidate_batch`)."""
        return self.smc.invalidate_batch(hsns)

    def exchange_segments(self, allocator: SegmentAllocator, dsn_a: int,
                          dsn_b: int) -> list[tuple[int, int]]:
        """Instantly exchange the contents of two device segments.

        Two live segments swap their mappings; a live segment moves into
        the other, free, slot (reserved for it, its old slot freed); two
        free slots are left alone.  Every HSN whose mapping changed is
        invalidated in the SMC.  Returns the ``(src_dsn, dst_dsn)``
        copies made — two for a swap, one for a move, none — so the
        caller can charge the bytes and carry its own per-segment
        hotness state along with the data.
        """
        tables = self.tables
        live_a = tables.is_dsn_live(dsn_a)
        live_b = tables.is_dsn_live(dsn_b)
        if live_a and live_b:
            hsn_a = tables.hsn_of_dsn(dsn_a)
            hsn_b = tables.hsn_of_dsn(dsn_b)
            tables.swap_segments(hsn_a, hsn_b)
            self.invalidate(hsn_a)
            self.invalidate(hsn_b)
            return [(dsn_a, dsn_b), (dsn_b, dsn_a)]
        if not (live_a or live_b):
            return []
        src, dst = (dsn_a, dsn_b) if live_a else (dsn_b, dsn_a)
        allocator.reserve_specific(dst)
        hsn = tables.hsn_of_dsn(src)
        tables.remap_segment(hsn, dst)
        self.invalidate(hsn)
        allocator.free([src])
        return [(src, dst)]

    # -- measured AMAT (Section 6.1) -------------------------------------------

    def measured_amat_ns(self) -> float:
        """Average translation latency using the paper's AMAT equations.

        ``Addr_translation = L1_hit_time + L1_miss_ratio x (L2_hit_time +
        L2_miss_ratio x L2_miss_penalty)``
        """
        config = self.smc.config
        l1_miss = self.smc.l1.stats.miss_ratio
        l2_miss = self.smc.l2.stats.miss_ratio
        return config.l1_hit_ns + l1_miss * (
            config.l2_hit_ns + l2_miss * self.miss_penalty_ns)

    def mean_observed_latency_ns(self) -> float:
        """Mean of the actually accumulated per-translation latencies."""
        if not self.translation_count:
            return 0.0
        return self.total_latency_ns / self.translation_count


__all__ = ["SRAM_ACCESS_CYCLES", "Translation", "TranslationEngine"]
