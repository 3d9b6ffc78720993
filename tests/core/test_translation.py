"""Tests for the translation engine and its latency accounting."""

import pytest

from repro.core.addressing import HostAddressLayout
from repro.core.segment_cache import SegmentCacheConfig
from repro.core.translation import TranslationEngine
from repro.dram.geometry import DramGeometry
from repro.dram.timing import NATIVE_DRAM_LATENCY_NS
from repro.errors import TranslationError
from repro.units import GIB, MIB


@pytest.fixture
def engine():
    layout = HostAddressLayout(DramGeometry(rank_bytes=1 * GIB),
                               au_bytes=64 * MIB)
    engine = TranslationEngine(layout)
    engine.tables.allocate_au(0, [0])
    for offset in range(32):
        engine.tables.map_segment(layout.pack_hsn(0, 0, offset), offset * 7)
    return engine


class TestLatencyAccounting:
    def test_first_access_pays_miss_penalty(self, engine):
        hsn = engine.layout.pack_hsn(0, 0, 0)
        _, latency, l1, l2 = engine.translate_hsn(hsn)
        assert not l1 and not l2
        assert latency == pytest.approx(
            engine.smc.config.l1_hit_ns + engine.smc.config.l2_hit_ns
            + engine.miss_penalty_ns)

    def test_second_access_hits_l1(self, engine):
        hsn = engine.layout.pack_hsn(0, 0, 0)
        engine.translate_hsn(hsn)
        _, latency, l1, _ = engine.translate_hsn(hsn)
        assert l1
        assert latency == pytest.approx(engine.smc.config.l1_hit_ns)

    def test_miss_penalty_includes_dram(self, engine):
        assert engine.miss_penalty_ns > NATIVE_DRAM_LATENCY_NS

    def test_counts_and_totals(self, engine):
        hsn = engine.layout.pack_hsn(0, 0, 1)
        engine.translate_hsn(hsn)
        engine.translate_hsn(hsn)
        assert engine.translation_count == 2
        assert engine.mean_observed_latency_ns() > 0

    def test_table_walk_probe_cycles_not_double_counted(self, engine):
        """Regression: a full miss charges the SMC probes once (via
        ``miss_probe_ns``) plus the walk penalty once — nothing twice."""
        hsn = engine.layout.pack_hsn(0, 0, 2)
        _, latency, l1, l2 = engine.translate_hsn(hsn)
        assert not l1 and not l2
        assert latency == pytest.approx(
            engine.smc.config.miss_probe_ns + engine.miss_penalty_ns)
        assert engine.total_latency_ns == pytest.approx(latency)
        assert engine.table_walks == 1
        # The L2-hit path must stay strictly cheaper than a full miss.
        assert engine.smc.config.miss_probe_ns + engine.miss_penalty_ns \
            > engine.smc.config.l1_hit_ns + engine.smc.config.l2_hit_ns


class TestTranslateFullAddress:
    def test_translation_fields(self, engine):
        hpa = engine.layout.hpa_of(engine.layout.pack_hsn(0, 0, 3), 4096)
        result = engine.translate(hpa)
        assert result.hsn == engine.layout.pack_hsn(0, 0, 3)
        assert result.dsn == 3 * 7
        assert result.dpa_offset == 4096
        assert result.smc_miss

    def test_unmapped_raises(self, engine):
        hpa = engine.layout.hpa_of(engine.layout.pack_hsn(0, 1, 0))
        with pytest.raises(TranslationError):
            engine.translate(hpa)


class TestInvalidation:
    def test_invalidate_forces_rewalk(self, engine):
        hsn = engine.layout.pack_hsn(0, 0, 5)
        engine.translate_hsn(hsn)
        engine.tables.remap_segment(hsn, 999)
        assert engine.invalidate(hsn)
        dsn, _, l1, l2 = engine.translate_hsn(hsn)
        assert dsn == 999
        assert not l1 and not l2

    def test_stale_mapping_without_invalidate(self, engine):
        """Demonstrates why migration must invalidate the SMC."""
        hsn = engine.layout.pack_hsn(0, 0, 5)
        engine.translate_hsn(hsn)
        engine.tables.remap_segment(hsn, 999)
        dsn, _, _, _ = engine.translate_hsn(hsn)
        assert dsn == 5 * 7  # stale!


class TestMeasuredAmat:
    def test_amat_formula_with_no_traffic(self, engine):
        # No lookups: miss ratios are 0, AMAT collapses to the L1 hit time.
        assert engine.measured_amat_ns() == pytest.approx(
            engine.smc.config.l1_hit_ns)

    def test_amat_grows_with_misses(self, engine):
        layout = engine.layout
        for offset in range(32):
            engine.translate_hsn(layout.pack_hsn(0, 0, offset))
        cold = engine.measured_amat_ns()
        for offset in range(32):
            engine.translate_hsn(layout.pack_hsn(0, 0, offset))
        warm = engine.measured_amat_ns()
        assert warm < cold

    def test_small_cache_increases_amat(self):
        layout = HostAddressLayout(DramGeometry(rank_bytes=1 * GIB),
                                   au_bytes=64 * MIB)
        tiny = TranslationEngine(layout, cache_config=SegmentCacheConfig(
            l1_entries=1, l2_entries=4, l2_ways=2))
        tiny.tables.allocate_au(0, [0])
        for offset in range(16):
            tiny.tables.map_segment(layout.pack_hsn(0, 0, offset), offset)
        for _ in range(3):
            for offset in range(16):
                tiny.translate_hsn(layout.pack_hsn(0, 0, offset))
        assert tiny.measured_amat_ns() > 50.0
