"""Tests for the per-rank power state machine."""

import pytest

from repro.dram.power import PowerState, STATE_POWER
from repro.dram.rank import Rank
from repro.errors import PowerStateError
from repro.units import NS_PER_S as S


@pytest.fixture
def rank():
    return Rank(channel=0, index=3)


class TestIdentity:
    def test_rank_id(self, rank):
        assert rank.rank_id == (0, 3)

    def test_starts_in_standby(self, rank):
        assert rank.state is PowerState.STANDBY


class TestTransitions:
    def test_residency_tracking(self, rank):
        rank.set_state(PowerState.SELF_REFRESH, now_ns=10 * S)
        rank.set_state(PowerState.STANDBY, now_ns=25 * S)
        rank.finalize(now_ns=30 * S)
        assert rank.residency_ns[PowerState.STANDBY] == 15 * S
        assert rank.residency_ns[PowerState.SELF_REFRESH] == 15 * S
        assert rank.residency_snapshot()["standby"] == 15.0

    def test_exit_penalty_returned(self, rank):
        rank.set_state(PowerState.MPSM, now_ns=0)
        penalty = rank.set_state(PowerState.STANDBY, now_ns=1 * S)
        assert penalty > 0
        assert rank.exit_penalty_total_ns == pytest.approx(penalty)

    def test_noop_transition_free(self, rank):
        assert rank.set_state(PowerState.STANDBY, now_ns=5 * S) == 0.0
        assert rank.transition_count == 0

    def test_illegal_transition(self, rank):
        rank.set_state(PowerState.SELF_REFRESH, now_ns=0)
        with pytest.raises(PowerStateError):
            rank.set_state(PowerState.MPSM, now_ns=1 * S)

    def test_time_cannot_go_backwards(self, rank):
        rank.set_state(PowerState.SELF_REFRESH, now_ns=10 * S)
        with pytest.raises(PowerStateError):
            rank.set_state(PowerState.STANDBY, now_ns=5 * S)

    def test_transition_count(self, rank):
        rank.set_state(PowerState.MPSM, now_ns=1 * S)
        rank.set_state(PowerState.STANDBY, now_ns=2 * S)
        assert rank.transition_count == 2


class TestAccesses:
    def test_counts(self, rank):
        rank.record_access()
        rank.record_access(5)
        assert rank.access_count == 6

    def test_mpsm_cannot_serve(self, rank):
        rank.set_state(PowerState.MPSM, now_ns=0)
        with pytest.raises(PowerStateError):
            rank.record_access()

    def test_self_refresh_access_allowed_by_rank(self, rank):
        """The policy wakes the rank first; the rank itself allows it."""
        rank.set_state(PowerState.SELF_REFRESH, now_ns=0)
        rank.record_access()
        assert rank.access_count == 1


class TestEnergy:
    def test_background_energy(self, rank):
        rank.set_state(PowerState.MPSM, now_ns=100 * S)
        rank.finalize(now_ns=200 * S)
        energy = rank.background_energy(STATE_POWER)
        assert energy == pytest.approx(100.0 * 1.0 + 100.0 * 0.068)

    def test_finalize_time_check(self, rank):
        rank.set_state(PowerState.MPSM, now_ns=10 * S)
        with pytest.raises(PowerStateError):
            rank.finalize(now_ns=5 * S)
