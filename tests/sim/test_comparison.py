"""Tests for the DTL-vs-RAMZzz comparison harness."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.ramzzz import RamzzzConfig
from repro.dram.geometry import DramGeometry
from repro.sim.comparison import PolicyComparisonExperiment, compare_policies
from repro.sim.selfrefresh_sim import SelfRefreshSimConfig, SelfRefreshSimulator
from repro.units import MIB
from repro.workloads.drift import DriftConfig

DRIFT = DriftConfig(period_s=1.0, fraction=0.5)


def small_config(**overrides):
    defaults = dict(
        geometry=DramGeometry(channels=2, ranks_per_channel=4,
                              rank_bytes=128 * MIB),
        allocated_bytes=544 * MIB,
        workloads=("data-caching", "media-streaming"),
        aggregate_bandwidth_gbs=0.3,
        duration_s=5.0,
        au_bytes=32 * MIB,
        group_granularity=1,
        seed=0)
    defaults.update(overrides)
    return SelfRefreshSimConfig(**defaults)


def experiment(**overrides) -> PolicyComparisonExperiment:
    return PolicyComparisonExperiment(small_config(**overrides),
                                      RamzzzConfig(victim_granularity=1))


def run_legs_in_lockstep(exp: PolicyComparisonExperiment, after_step):
    """Advance both legs of one experiment side by side (they share no
    state, so the order between legs is free); returns the state."""
    state = exp.begin()
    more = True
    while more:
        more = state.dtl_sim.advance(state.dtl_state)
        assert state.ramzzz_sim.advance(state.ramzzz_state) == more
        after_step(state)
    return state


class TestRamzzzSimulator:
    def test_runs_and_summarises(self):
        exp = experiment()
        state = exp.begin()
        while exp.advance(state):
            pass
        result = exp.finish(state).ramzzz
        assert len(result.steps) == int(5.0 / 0.05)
        assert result.baseline_power > 0
        assert state.ramzzz_state.policy.epoch_index > 0

    def test_same_substrate_as_dtl(self):
        """Both legs see the same placement and capacity."""
        result = compare_policies(small_config(),
                                  RamzzzConfig(victim_granularity=1))
        assert result.ramzzz.active_ranks_per_channel == \
            result.dtl.active_ranks_per_channel
        assert result.ramzzz.baseline_power == pytest.approx(
            result.dtl.baseline_power)


class TestComparePolicies:
    def test_comparison_result_fields(self):
        result = compare_policies(small_config(),
                                  RamzzzConfig(victim_granularity=1))
        assert result.dtl.config.duration_s == 5.0
        assert result.ramzzz_demotions >= 0
        assert isinstance(result.advantage(), float)

    def test_dtl_leg_is_the_standalone_simulator(self):
        config = small_config()
        leg = compare_policies(config,
                               RamzzzConfig(victim_granularity=1)).dtl
        alone = SelfRefreshSimulator(config).run()
        for field in dataclasses.fields(alone):
            assert getattr(leg, field.name) == getattr(alone, field.name), \
                field.name


class TestIdenticalInputs:
    @pytest.mark.parametrize("drift", [None, DRIFT], ids=["stable", "drift"])
    def test_legs_draw_the_same_random_numbers(self, drift):
        def same_rng(state):
            assert (state.dtl_state.rng.bit_generator.state
                    == state.ramzzz_state.rng.bit_generator.state)

        state = run_legs_in_lockstep(experiment(drift=drift), same_rng)
        assert state.dtl_state.step == state.ramzzz_state.step == 100

    def test_drift_reaches_both_legs_at_the_same_steps(self):
        changed: dict[str, list[int]] = {"dtl": [], "ramzzz": []}
        exp = experiment(drift=DRIFT)
        last = {}

        def note_rate_changes(state):
            for leg, leg_state in (("dtl", state.dtl_state),
                                   ("ramzzz", state.ramzzz_state)):
                if leg in last and not np.array_equal(last[leg],
                                                      leg_state.p_touch):
                    changed[leg].append(leg_state.step)
                last[leg] = leg_state.p_touch

        state = run_legs_in_lockstep(exp, note_rate_changes)
        assert changed["dtl"] == changed["ramzzz"] == [20, 40, 60, 80, 100]
        drifted = exp.finish(state).ramzzz
        stable = compare_policies(small_config(),
                                  RamzzzConfig(victim_granularity=1)).ramzzz
        assert drifted.migrated_bytes != stable.migrated_bytes
        assert drifted.stable_savings != stable.stable_savings

    def test_ramzzz_wake_penalty_is_reported(self):
        exp = experiment()
        state = exp.begin()
        while exp.advance(state):
            pass
        record = exp.finish(state).to_record()
        policy = state.ramzzz_state.policy
        assert policy.wakeups > 0
        assert (record.metrics["ramzzz_exit_penalty_ns"]
                == policy.exit_penalty_total_ns > 0)
