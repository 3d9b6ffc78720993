"""The policy tournament: Pareto logic, overhead math, and the grid run."""

from __future__ import annotations

import json

import pytest

from repro.exec import ExecConfig
from repro.sim.experiments import run_experiment
from repro.sim.results import flatten_tournament
from repro.sim.tournament import (TOURNAMENT_MIXES, PolicyTournament,
                                  TournamentCell, TournamentConfig,
                                  TournamentResult, cell_from_result,
                                  quick_tournament_config)


def cell(policy="paper", workload="mix0", savings=0.1, overhead=0.01,
         **extra) -> TournamentCell:
    defaults = dict(sr_entries=1, sr_exits=1, migrated_bytes=0,
                    exit_penalty_ns=0.0)
    defaults.update(extra)
    return TournamentCell(policy=policy, workload=workload,
                          savings=savings, overhead=overhead, **defaults)


class TestDominance:
    def test_better_on_both_axes_dominates(self):
        assert cell(savings=0.2, overhead=0.01).dominates(
            cell(savings=0.1, overhead=0.02))

    def test_equal_cells_do_not_dominate_each_other(self):
        a, b = cell(), cell(policy="dream")
        assert not a.dominates(b) and not b.dominates(a)

    def test_tradeoff_is_incomparable(self):
        more_savings = cell(savings=0.2, overhead=0.05)
        less_overhead = cell(savings=0.1, overhead=0.01)
        assert not more_savings.dominates(less_overhead)
        assert not less_overhead.dominates(more_savings)

    def test_one_axis_tie_with_one_strict_dominates(self):
        assert cell(savings=0.2, overhead=0.01).dominates(
            cell(savings=0.2, overhead=0.02))


class TestParetoFront:
    def test_dominated_cells_drop_out(self):
        best = cell(policy="a", savings=0.3, overhead=0.01)
        dominated = cell(policy="b", savings=0.1, overhead=0.05)
        result = TournamentResult(config=TournamentConfig(),
                                  cells=[dominated, best])
        assert result.pareto_front() == [best]

    def test_incomparable_cells_all_survive_sorted_by_savings(self):
        frugal = cell(policy="a", savings=0.1, overhead=0.001)
        greedy = cell(policy="b", savings=0.3, overhead=0.1)
        middle = cell(policy="c", savings=0.2, overhead=0.01)
        result = TournamentResult(config=TournamentConfig(),
                                  cells=[frugal, greedy, middle])
        assert result.pareto_front() == [greedy, middle, frugal]

    def test_duplicate_points_all_survive(self):
        twins = [cell(policy="a"), cell(policy="b")]
        result = TournamentResult(config=TournamentConfig(), cells=twins)
        assert set(c.policy for c in result.pareto_front()) == {"a", "b"}


class TestPolicyMeans:
    def test_means_average_over_mixes(self):
        cells = [cell(policy="paper", workload="mix0", savings=0.1,
                      overhead=0.02),
                 cell(policy="paper", workload="mix1", savings=0.3,
                      overhead=0.04)]
        result = TournamentResult(
            config=TournamentConfig(policies=("paper",)), cells=cells)
        means = result.policy_means()
        assert means["paper"][0] == pytest.approx(0.2)
        assert means["paper"][1] == pytest.approx(0.03)

    def test_policies_without_cells_are_omitted(self):
        result = TournamentResult(
            config=TournamentConfig(policies=("paper", "dream")),
            cells=[cell(policy="paper")])
        assert set(result.policy_means()) == {"paper"}


class TestOverheadProjection:
    def test_cell_from_result_combines_penalty_and_migration_time(self):
        spec_result = run_experiment(
            "selfrefresh",
            quick_cfg := _one_cell_config())
        projected = cell_from_result("paper", "mix0", spec_result)
        migration_s = (spec_result.migrated_bytes
                       / (quick_cfg.aggregate_bandwidth_gbs * 1e9))
        expected = ((spec_result.exit_penalty_ns / 1e9 + migration_s)
                    / quick_cfg.duration_s)
        assert projected.overhead == pytest.approx(expected)
        assert projected.savings == spec_result.stable_savings
        assert projected.sr_entries == spec_result.sr_entries


def _one_cell_config():
    from repro.sim.selfrefresh_sim import SelfRefreshSimConfig
    from repro.workloads.cloudsuite import TRACED_BENCHMARKS
    return SelfRefreshSimConfig(workloads=TRACED_BENCHMARKS[:3],
                                duration_s=2.0)


class TestTournamentRun:
    @pytest.fixture(scope="class")
    def result(self):
        return PolicyTournament(quick_tournament_config(),
                                ExecConfig(workers=1)).run()

    def test_grid_covers_policies_times_mixes(self, result):
        config = result.config
        assert len(config.policies) >= 4
        assert len(TOURNAMENT_MIXES) >= 2
        assert not result.failures
        assert len(result.cells) == (len(config.policies)
                                     * len(TOURNAMENT_MIXES))
        grid = {(cell.policy, cell.workload) for cell in result.cells}
        assert grid == {(policy, f"mix{index}")
                        for policy in config.policies
                        for index in range(len(TOURNAMENT_MIXES))}

    def test_every_cell_simulated_something(self, result):
        for entry in result.cells:
            assert entry.sr_entries > 0, entry
            assert 0.0 <= entry.savings < 1.0
            assert entry.overhead >= 0.0

    def test_front_is_nonempty_subset(self, result):
        front = result.pareto_front()
        assert front
        assert set(front) <= set(result.cells)

    def test_record_flattens_and_serialises(self, result):
        record = result.to_record()
        assert record.experiment == "tournament"
        flat = flatten_tournament(result)
        assert flat["cells"] == len(result.cells)
        for entry in result.cells:
            assert f"{entry.policy}.{entry.workload}.savings" in flat
        for policy in result.config.policies:
            assert f"{policy}.mean_savings" in flat
        json.dumps(record.to_dict())

    def test_unknown_policy_fails_its_cells_only(self):
        config = TournamentConfig(policies=("paper", "bogus"),
                                  duration_s=1.0)
        result = PolicyTournament(config, ExecConfig(workers=1)).run()
        assert {cell.policy for cell in result.cells} == {"paper"}
        assert {policy for policy, _, _ in result.failures} == {"bogus"}
        assert all("bogus" in error for _, _, error in result.failures)


class TestConfig:
    def test_quick_config_shrinks_duration_only(self):
        full, quick = TournamentConfig(), quick_tournament_config(seed=5)
        assert quick.duration_s < full.duration_s
        assert quick.policies == full.policies
        assert quick.seed == 5

    def test_seeded_config_helpers(self):
        config = TournamentConfig()
        assert config.with_seed(9).seed == 9
        assert config.replace(duration_s=1.0).duration_s == 1.0
