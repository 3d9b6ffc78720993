"""Tests for the DRAM power model (Table 2 / Figure 11)."""

import pytest

from repro.dram.geometry import DramGeometry
from repro.dram.power import (DramPowerModel, EnergyAccumulator, MPSM_EXIT_NS,
                              PowerState, SELF_REFRESH_EXIT_NS, STATE_POWER,
                              check_transition, transition_exit_penalty_ns)
from repro.errors import PowerStateError
from repro.units import GIB


@pytest.fixture
def model():
    return DramPowerModel(geometry=DramGeometry(rank_bytes=1 * GIB))


class TestStatePowers:
    def test_table2_values(self):
        assert STATE_POWER[PowerState.STANDBY] == 1.0
        assert STATE_POWER[PowerState.SELF_REFRESH] == 0.2
        assert STATE_POWER[PowerState.MPSM] == 0.068

    def test_mpsm_loses_data(self):
        assert not PowerState.MPSM.retains_data()
        assert PowerState.SELF_REFRESH.retains_data()
        assert PowerState.STANDBY.retains_data()


class TestTransitions:
    @pytest.mark.parametrize("old,new", [
        (PowerState.STANDBY, PowerState.SELF_REFRESH),
        (PowerState.STANDBY, PowerState.MPSM),
        (PowerState.SELF_REFRESH, PowerState.STANDBY),
        (PowerState.MPSM, PowerState.STANDBY),
    ])
    def test_legal(self, old, new):
        check_transition(old, new)

    @pytest.mark.parametrize("old,new", [
        (PowerState.SELF_REFRESH, PowerState.MPSM),
        (PowerState.MPSM, PowerState.SELF_REFRESH),
    ])
    def test_illegal_between_low_power_states(self, old, new):
        with pytest.raises(PowerStateError):
            check_transition(old, new)

    def test_exit_penalties_hundreds_of_ns(self):
        sr = transition_exit_penalty_ns(PowerState.SELF_REFRESH,
                                        PowerState.STANDBY)
        mpsm = transition_exit_penalty_ns(PowerState.MPSM, PowerState.STANDBY)
        assert sr == SELF_REFRESH_EXIT_NS
        assert mpsm == MPSM_EXIT_NS
        assert 100 <= sr <= 1000
        assert 100 <= mpsm <= 1000

    def test_entering_low_power_is_free(self):
        assert transition_exit_penalty_ns(PowerState.STANDBY,
                                          PowerState.MPSM) == 0.0


class TestBackgroundPower:
    def test_all_standby(self, model):
        power = model.background_power({PowerState.STANDBY: 32})
        assert power == pytest.approx(32 + 4 * model.channel_fixed_overhead)

    def test_mpsm_reduces_power(self, model):
        full = model.background_power({PowerState.STANDBY: 32})
        half = model.background_power({PowerState.STANDBY: 16,
                                       PowerState.MPSM: 16})
        assert half < full
        assert half == pytest.approx(full - 16 * (1 - 0.068))

    def test_rank_count_must_match_geometry(self, model):
        with pytest.raises(ValueError):
            model.background_power({PowerState.STANDBY: 5})

    def test_figure11a_monotone_in_active_ranks(self, model):
        powers = [model.background_power_active_ranks(n) for n in range(9)]
        assert powers == sorted(powers)

    def test_figure11a_rejects_out_of_range(self, model):
        with pytest.raises(ValueError):
            model.background_power_active_ranks(9)


class TestActivePower:
    def test_linear_in_bandwidth(self, model):
        assert model.active_power(10.0) == pytest.approx(
            2 * model.active_power(5.0))

    def test_zero_bandwidth(self, model):
        assert model.active_power(0.0) == 0.0

    def test_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.active_power(-1.0)

    def test_total_power_composition(self, model):
        counts = {PowerState.STANDBY: 32}
        assert model.total_power(counts, 10.0) == pytest.approx(
            model.background_power(counts) + model.active_power(10.0))


class TestConversions:
    def test_to_watts(self, model):
        assert model.to_watts(2.0) == pytest.approx(
            2.0 * model.rank_standby_watts)

    def test_baseline(self, model):
        assert model.baseline_background_power() == pytest.approx(
            model.background_power({PowerState.STANDBY: 32}))


class TestEnergyAccumulator:
    def test_accumulates(self):
        acc = EnergyAccumulator()
        acc.add_interval(10.0, background_power=2.0, active_power=1.0,
                         migration_power=0.5)
        assert acc.background_j == pytest.approx(20.0)
        assert acc.active_j == pytest.approx(10.0)
        assert acc.migration_j == pytest.approx(5.0)
        assert acc.total_j == pytest.approx(35.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EnergyAccumulator().add_interval(-1.0, 1.0, 0.0)
