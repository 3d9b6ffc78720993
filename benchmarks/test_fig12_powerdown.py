"""Figure 12: rank-level power-down over the six-hour VM schedule.

Paper: (a) runtime DRAM power falls as VMs depart and rank-groups enter
MPSM, with short migration pulses at deallocations; (b) total DRAM energy
drops 31.6 % vs the 8-rank baseline at a 1.6 % execution-time cost.
"""

import numpy as np
import pytest

from repro.sim.powerdown_sim import (ComparisonSimulator, energy_savings,
                                     power_savings)

from conftest import report

PAPER_ENERGY_SAVINGS = 0.316
PAPER_EXEC_OVERHEAD = 0.016


@pytest.fixture(scope="module")
def results():
    result = ComparisonSimulator().run()
    return result.baseline, result.dtl


def test_fig12b_energy_savings(benchmark, results):
    baseline, dtl = benchmark.pedantic(lambda: results, rounds=1,
                                       iterations=1)
    savings = energy_savings(baseline, dtl)
    report("Figure 12(b): DRAM energy vs baseline", [
        ("energy savings", f"{savings:.1%}",
         f"(paper {PAPER_ENERGY_SAVINGS:.1%})"),
        ("power savings", f"{power_savings(baseline, dtl):.1%}",
         "(paper 32.7%)"),
        ("exec-time cost", f"{dtl.execution_time_factor - 1:.2%}",
         f"(paper {PAPER_EXEC_OVERHEAD:.1%})"),
        ("mean ranks/ch", f"{dtl.mean_active_ranks:.2f}", "(of 8)"),
    ], header=("metric", "measured", "paper"))
    # Shape: savings land in the paper's band; overhead stays tiny.
    assert 0.6 * PAPER_ENERGY_SAVINGS < savings < 1.5 * PAPER_ENERGY_SAVINGS
    assert dtl.execution_time_factor - 1 < 2.0 * PAPER_EXEC_OVERHEAD


def test_fig12a_power_trace_shape(results):
    baseline, dtl = results
    _, base_power = baseline.power_timeseries()
    _, dtl_power = dtl.power_timeseries()
    # The DTL trace sits below the baseline essentially everywhere.
    assert float(np.mean(dtl_power < base_power + 1e-9)) > 0.9
    # Baseline background power never moves (all ranks standby).
    base_bg = [record.background_power for record in baseline.intervals]
    assert max(base_bg) - min(base_bg) < 1e-9
    # The DTL trace varies with occupancy.
    assert np.std(dtl_power) > 0


def test_fig12a_migration_pulses(results):
    _, dtl = results
    pulses = [record.migration_power for record in dtl.intervals]
    assert max(pulses) > 0  # deallocations triggered consolidation
    # Migration is a small transient, not a steady cost (Section 6.2).
    migration_energy = dtl.energy.migration_j
    assert migration_energy < 0.02 * dtl.energy.total_j


def test_fig12_migration_completes_quickly(results):
    """Paper: a 24 GB consolidation takes ~1.3 s, far below the 5-minute
    interval; check per-transition migration time stays short."""
    _, dtl = results
    if dtl.migrated_bytes == 0:
        pytest.skip("no migrations in this schedule")
    mean_time = dtl.migration_time_s / max(1, dtl.power_transitions)
    assert mean_time < 60.0


def test_fig12_sensitivity_to_calibration(benchmark, results):
    """Robustness: the savings figure across a 2x band around each of the
    two calibrated power constants (per-channel fixed overhead, active
    power per GB/s).  Only these two constants are fitted; everything else
    is a published number."""
    from repro.analysis.sensitivity import savings_range, sensitivity_grid

    baseline, dtl = results
    points = benchmark.pedantic(
        lambda: sensitivity_grid(baseline, dtl), rounds=1, iterations=1)
    low, high = savings_range(points)
    rows = [(f"f={p.channel_fixed_overhead:.1f} k={p.active_power_per_gbs}",
             f"{p.energy_savings:.1%}")
            for p in points[:: max(1, len(points) // 8)]]
    rows.append(("range", f"{low:.1%} .. {high:.1%} (paper 31.6%)"))
    report("Figure 12 sensitivity to calibrated constants", rows,
           header=("constants", "savings"))
    assert low > 0.15
    assert high < 0.60
