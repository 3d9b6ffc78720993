"""Tests for the analytical performance model (Figures 2 and 5)."""

import pytest

from repro.dram.timing import CXL_MEMORY_LATENCY_NS, NATIVE_DRAM_LATENCY_NS
from repro.sim.perf_model import (INTERLEAVING_OFF_PENALTY_CXL,
                                  PerformanceModel, TRANSLATION_OVERHEAD,
                                  access_rate_per_channel)
from repro.workloads.cloudsuite import PROFILES


@pytest.fixture
def model():
    return PerformanceModel()


class TestRankSweep:
    def test_baseline_is_zero(self, model):
        assert model.mean_rank_sweep_slowdown(8) == pytest.approx(0.0)

    def test_monotone_in_rank_count(self, model):
        slowdowns = [model.mean_rank_sweep_slowdown(r) for r in (8, 6, 4, 2)]
        assert slowdowns == sorted(slowdowns)

    def test_figure2_band(self, model):
        """Paper: ~0.7 % average loss at 2 ranks per channel."""
        assert 0.002 < model.mean_rank_sweep_slowdown(2) < 0.02

    def test_memory_intensive_workloads_suffer_more(self, model):
        graph = model.rank_sweep_slowdown(PROFILES["graph-analytics"], 2)
        web = model.rank_sweep_slowdown(PROFILES["web-search"], 2)
        assert graph > web

    def test_invalid_rank_count(self, model):
        with pytest.raises(ValueError):
            model.bank_queue_delay_ns(PROFILES["web-search"], 0)


class TestInterleaving:
    def test_figure5_band_local(self, model):
        """Paper: ~1.7 % for local memory."""
        assert 0.008 < model.mean_interleaving_slowdown(cxl=False) < 0.03

    def test_figure5_band_cxl(self, model):
        """Paper: ~1.4 % under CXL latency."""
        assert 0.006 < model.mean_interleaving_slowdown(cxl=True) < 0.025

    def test_cxl_penalty_relatively_smaller(self, model):
        """The same queueing delta matters less at higher base latency."""
        assert model.mean_interleaving_slowdown(cxl=True) < \
            model.mean_interleaving_slowdown(cxl=False)

    def test_more_visible_ranks_less_penalty(self, model):
        profile = PROFILES["graph-analytics"]
        narrow = model.interleaving_slowdown(profile, NATIVE_DRAM_LATENCY_NS,
                                             footprint_rank_share=0.125)
        wide = model.interleaving_slowdown(profile, NATIVE_DRAM_LATENCY_NS,
                                           footprint_rank_share=0.5)
        assert wide < narrow


class TestComponents:
    def test_queue_delay_decreases_with_ranks(self, model):
        profile = PROFILES["graph-analytics"]
        assert model.bank_queue_delay_ns(profile, 2) > \
            model.bank_queue_delay_ns(profile, 8)

    def test_time_per_ki_increases_with_latency(self, model):
        profile = PROFILES["data-caching"]
        assert model.time_per_kilo_instruction_ns(
            profile, 8, CXL_MEMORY_LATENCY_NS) > \
            model.time_per_kilo_instruction_ns(
                profile, 8, NATIVE_DRAM_LATENCY_NS)

    def test_access_rate_scales_with_mapki(self):
        assert access_rate_per_channel(PROFILES["graph-analytics"]) > \
            access_rate_per_channel(PROFILES["web-search"])


class TestPaperConstants:
    def test_section51_constants(self):
        assert INTERLEAVING_OFF_PENALTY_CXL == pytest.approx(0.014)
        assert TRANSLATION_OVERHEAD == pytest.approx(0.0018)
