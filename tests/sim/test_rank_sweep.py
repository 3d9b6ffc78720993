"""Tests for the trace-driven rank sweep."""

import pytest

from repro.dram.timing import DDR4_2933
from repro.sim.rank_sweep import (RankSweepExperiment, TraceRankSweep,
                                  TraceRankSweepConfig,
                                  mean_trace_driven_slowdown)
from repro.workloads.cloudsuite import PROFILES


@pytest.fixture(scope="module")
def sweep():
    return TraceRankSweep(PROFILES["graph-analytics"], num_accesses=20_000)


def swept(rank_counts, workload="graph-analytics", num_accesses=20_000):
    """One registered rank-sweep run (the ``sweep`` fixture's trace by
    default)."""
    return RankSweepExperiment(TraceRankSweepConfig(
        workload=workload, num_accesses=num_accesses,
        rank_counts=rank_counts)).run()


class TestMeasurement:
    def test_baseline_slowdown_zero(self):
        assert swept((8,)).slowdowns()[8] == pytest.approx(0.0)

    def test_monotone_in_rank_count(self):
        slowdowns = swept((8, 4, 2)).slowdowns()
        assert slowdowns[8] <= slowdowns[4] <= slowdowns[2]

    def test_queue_grows_with_fewer_ranks(self, sweep):
        wide = sweep.measure(8)
        narrow = sweep.measure(2)
        assert narrow.mean_queue_ns > wide.mean_queue_ns

    def test_service_time_plausible(self, sweep):
        point = sweep.measure(4)
        timing = DDR4_2933
        assert timing.row_hit_latency_ns() < point.mean_service_ns \
            <= timing.row_conflict_latency_ns()

    def test_interpolated_odd_rank_count(self, sweep):
        points = swept((6,)).points
        low = sweep.measure(4)
        high = sweep.measure(8)
        assert min(low.time_per_ki_ns, high.time_per_ki_ns) <= \
            points[6].time_per_ki_ns <= \
            max(low.time_per_ki_ns, high.time_per_ki_ns)

    def test_small_loss_at_two_ranks(self):
        """The headline: the trace-driven method also finds sub-percent
        losses at 2 ranks (Figure 2's claim, paper: 0.7 % mean)."""
        slowdown = swept((2,)).slowdowns()[2]
        assert 0.0 <= slowdown < 0.03


class TestAggregates:
    def test_mean_over_workloads(self):
        mean = mean_trace_driven_slowdown(2, workloads=("graph-analytics",
                                                        "data-caching"),
                                          num_accesses=15_000)
        assert 0.0 <= mean < 0.02

    def test_memory_heavy_workload_suffers_more(self):
        heavy = swept((2,), num_accesses=15_000).slowdowns()[2]
        light = swept((2,), "web-search", num_accesses=15_000).slowdowns()[2]
        assert heavy >= light


class TestInterleavingComparison:
    def test_cxl_smaller_than_local(self):
        from repro.sim.rank_sweep import interleaving_comparison
        result = interleaving_comparison(PROFILES["graph-analytics"],
                                         num_accesses=15_000)
        assert 0.0 <= result["cxl"] <= result["local"]

    def test_cost_is_small(self):
        from repro.sim.rank_sweep import interleaving_comparison
        result = interleaving_comparison(PROFILES["graph-analytics"],
                                         num_accesses=15_000)
        assert result["local"] < 0.05
