"""Figure 13: DRAM power breakdown, baseline vs rank-level power-down.

Paper: the power-down scheme cuts background power by 35.3 % while active
power barely moves (the same foreground VMs run either way), for a 32.7 %
total power reduction.
"""

import pytest

from repro.sim.powerdown_sim import (ComparisonSimulator,
                                     background_power_savings, power_savings)

from conftest import report

PAPER_BACKGROUND_SAVINGS = 0.353
PAPER_TOTAL_SAVINGS = 0.327


@pytest.fixture(scope="module")
def results():
    result = ComparisonSimulator().run()
    return result.baseline, result.dtl


def test_fig13_power_breakdown(benchmark, results):
    baseline, dtl = benchmark.pedantic(lambda: results, rounds=1,
                                       iterations=1)
    duration = sum(record.duration_s for record in dtl.intervals)
    rows = [
        ("background", f"{baseline.energy.background_j / duration:.1f}",
         f"{dtl.energy.background_j / duration:.1f}"),
        ("active", f"{baseline.energy.active_j / duration:.1f}",
         f"{dtl.energy.active_j / duration:.1f}"),
        ("migration", f"{baseline.energy.migration_j / duration:.2f}",
         f"{dtl.energy.migration_j / duration:.2f}"),
    ]
    report("Figure 13: mean power breakdown (RSU)", rows,
           header=("component", "baseline", "power-down"))

    bg_savings = background_power_savings(baseline, dtl)
    total_savings = power_savings(baseline, dtl)
    report("Figure 13: savings", [
        ("background", f"{bg_savings:.1%}",
         f"(paper {PAPER_BACKGROUND_SAVINGS:.1%})"),
        ("total", f"{total_savings:.1%}",
         f"(paper {PAPER_TOTAL_SAVINGS:.1%})"),
    ], header=("component", "measured", "paper"))

    # Shape: background dominates the savings; active power is unchanged.
    assert 0.6 * PAPER_BACKGROUND_SAVINGS < bg_savings \
        < 1.5 * PAPER_BACKGROUND_SAVINGS
    assert dtl.energy.active_j == pytest.approx(baseline.energy.active_j,
                                                rel=1e-9)
    assert bg_savings > total_savings - 0.02


def test_fig13_background_dominates_baseline(results):
    baseline, _ = results
    assert baseline.energy.background_j > 3 * baseline.energy.active_j
