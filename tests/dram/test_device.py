"""Tests for the whole-device DRAM model."""

import pytest

from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.power import DramPowerModel, PowerState
from repro.units import GIB, NS_PER_S


@pytest.fixture
def device():
    return DramDevice(geometry=DramGeometry(rank_bytes=1 * GIB))


def set_group_state(device, group_index, state, now_ns):
    """Move rank-group ``group_index`` (one rank per channel) to
    ``state``; returns the largest exit penalty (ns)."""
    return max(device.set_rank_state((channel, group_index), state, now_ns)
               for channel in range(device.geometry.channels))


class TestConstruction:
    def test_creates_all_ranks(self, device):
        assert len(device.ranks) == 32

    def test_mismatched_power_model_rejected(self):
        geo_a = DramGeometry(rank_bytes=1 * GIB)
        geo_b = DramGeometry(rank_bytes=2 * GIB)
        with pytest.raises(ValueError):
            DramDevice(geometry=geo_a,
                       power_model=DramPowerModel(geometry=geo_b))

    def test_unknown_rank_lookup(self, device):
        with pytest.raises(KeyError):
            device.rank(9, 0)


class TestLookups:
    def test_ranks_in_channel(self, device):
        ranks = device.ranks_in_channel(2)
        assert [r.index for r in ranks] == list(range(8))
        assert all(r.channel == 2 for r in ranks)

    def test_rank_group_spans_channels(self, device):
        group = device.rank_group(5)
        assert [r.channel for r in group] == [0, 1, 2, 3]
        assert all(r.index == 5 for r in group)

    def test_state_counts(self, device):
        device.set_rank_state((0, 0), PowerState.MPSM, 0)
        counts = device.state_counts()
        assert counts[PowerState.MPSM] == 1
        assert counts[PowerState.STANDBY] == 31

    def test_standby_per_channel(self, device):
        device.set_rank_state((1, 7), PowerState.SELF_REFRESH, 0)
        assert device.standby_ranks_per_channel(1) == 7
        assert device.standby_ranks_per_channel(0) == 8


class TestGroupTransitions:
    def test_rank_group_transition(self, device):
        set_group_state(device, 3, PowerState.MPSM, 0)
        assert all(device.rank(c, 3).state is PowerState.MPSM
                   for c in range(4))

    def test_group_exit_penalty(self, device):
        set_group_state(device, 3, PowerState.MPSM, 0)
        penalty = set_group_state(device, 3, PowerState.STANDBY, 1.0)
        assert penalty > 0


class TestPowerAndEnergy:
    def test_background_power_drops_with_mpsm(self, device):
        before = device.background_power()
        set_group_state(device, 0, PowerState.MPSM, 0)
        assert device.background_power() < before

    def test_total_power_includes_bandwidth(self, device):
        assert device.total_power(10.0) > device.total_power(0.0)

    def test_energy_integration(self, device):
        set_group_state(device, 0, PowerState.MPSM, 0)
        device.finalize(now_ns=100 * NS_PER_S)
        energy = device.background_energy()
        # 28 standby ranks + 4 MPSM ranks for 100 s.
        assert energy == pytest.approx(100.0 * (28 + 4 * 0.068))
