"""DRAM power model.

Reproduces the paper's power methodology (Section 5.1, Table 2, Figure 11):

* Per-rank *background* power depends only on the rank's power state —
  standby 1.0, self-refresh 0.2, MPSM 0.068 (normalised to standby).
* *Active* power scales near-linearly with the bandwidth actually consumed
  (Figure 11(b)), independent of how many ranks serve it.
* A small per-channel fixed overhead models clocking/register power that
  does not scale with rank count.

All powers are expressed in normalised "rank-standby units" (RSU): the
background power of one rank in standby is 1.0.  Absolute watts can be
obtained by multiplying with :attr:`DramPowerModel.rank_standby_watts`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dram.geometry import DramGeometry
from repro.errors import PowerStateError


class PowerState(enum.Enum):
    """JEDEC-style rank power states used by the paper (Section 2)."""

    STANDBY = "standby"
    SELF_REFRESH = "self_refresh"
    MPSM = "mpsm"

    def retains_data(self) -> bool:
        """MPSM is the only state without data retention."""
        return self is not PowerState.MPSM


#: Table 2 — normalised background power in each state.
STATE_POWER = {
    PowerState.STANDBY: 1.0,
    PowerState.SELF_REFRESH: 0.2,
    PowerState.MPSM: 0.068,
}

#: Legal state transitions.  MPSM responds only to ``MPSM_exit`` so a rank
#: must pass through standby between low-power states.
_LEGAL_TRANSITIONS = {
    PowerState.STANDBY: {PowerState.SELF_REFRESH, PowerState.MPSM,
                         PowerState.STANDBY},
    PowerState.SELF_REFRESH: {PowerState.STANDBY},
    PowerState.MPSM: {PowerState.STANDBY},
}

#: Exit penalties, "in the order of hundreds of nanoseconds" (Section 2,
#: Samsung datasheet [47]).
SELF_REFRESH_EXIT_NS = 500.0
MPSM_EXIT_NS = 700.0


def check_transition(old: PowerState, new: PowerState) -> None:
    """Raise :class:`PowerStateError` if ``old -> new`` is illegal."""
    if new not in _LEGAL_TRANSITIONS[old]:
        raise PowerStateError(f"illegal power transition {old.value} -> {new.value}")


def transition_exit_penalty_ns(old: PowerState, new: PowerState) -> float:
    """Latency penalty in nanoseconds for leaving a low-power state."""
    if old is PowerState.SELF_REFRESH and new is PowerState.STANDBY:
        return SELF_REFRESH_EXIT_NS
    if old is PowerState.MPSM and new is PowerState.STANDBY:
        return MPSM_EXIT_NS
    return 0.0


@dataclass(frozen=True)
class DramPowerModel:
    """Analytical DRAM power model calibrated to the paper's measurements.

    Attributes:
        geometry: Device geometry the model describes.
        state_power: Normalised background power per state (Table 2).
        channel_fixed_overhead: Per-channel background power that does not
            scale with rank count (clock/register power), in RSU.
        active_power_per_gbs: Active power per GB/s of consumed bandwidth,
            in RSU (Figure 11(b): near-linear scaling).
        rank_standby_watts: Absolute standby background power of one rank,
            used only when converting to watts.
    """

    geometry: DramGeometry
    state_power: dict[PowerState, float] = field(
        default_factory=lambda: dict(STATE_POWER))
    channel_fixed_overhead: float = 2.4
    active_power_per_gbs: float = 0.25
    rank_standby_watts: float = 1.5

    # -- background ---------------------------------------------------------

    def background_power(self, state_counts: dict[PowerState, int]) -> float:
        """Total background power for a population of ranks (RSU).

        Args:
            state_counts: Mapping from power state to the number of ranks
                currently in that state.
        """
        total_ranks = sum(state_counts.values())
        if total_ranks != self.geometry.total_ranks:
            raise ValueError(
                f"state_counts covers {total_ranks} ranks, geometry has "
                f"{self.geometry.total_ranks}")
        power = self.channel_fixed_overhead * self.geometry.channels
        for state, count in state_counts.items():
            power += count * self.state_power[state]
        return power

    def background_power_active_ranks(self, active_per_channel: int,
                                      idle_state: PowerState = PowerState.MPSM,
                                      ) -> float:
        """Background power with ``active_per_channel`` standby ranks per
        channel and the remainder in ``idle_state`` (RSU).

        This is the quantity plotted in Figure 11(a) (normalised).
        """
        if not 0 <= active_per_channel <= self.geometry.ranks_per_channel:
            raise ValueError(
                f"active_per_channel {active_per_channel} out of range")
        idle = self.geometry.ranks_per_channel - active_per_channel
        counts = {
            PowerState.STANDBY: active_per_channel * self.geometry.channels,
            idle_state: idle * self.geometry.channels,
        }
        if idle == 0:
            counts = {PowerState.STANDBY: counts[PowerState.STANDBY]}
        return self.background_power(counts)

    # -- active -------------------------------------------------------------

    def active_power(self, bandwidth_gbs: float) -> float:
        """Active (access) power for the given consumed bandwidth (RSU)."""
        if bandwidth_gbs < 0:
            raise ValueError("bandwidth must be non-negative")
        return self.active_power_per_gbs * bandwidth_gbs

    def total_power(self, state_counts: dict[PowerState, int],
                    bandwidth_gbs: float) -> float:
        """Background + active power (RSU)."""
        return self.background_power(state_counts) + self.active_power(
            bandwidth_gbs)

    # -- conversions ---------------------------------------------------------

    def to_watts(self, rsu: float) -> float:
        """Convert normalised rank-standby units to watts."""
        return rsu * self.rank_standby_watts

    def baseline_background_power(self) -> float:
        """Background power with every rank in standby (the paper baseline)."""
        return self.background_power(
            {PowerState.STANDBY: self.geometry.total_ranks})


@dataclass
class EnergyAccumulator:
    """Integrates power over time into energy, split by component.

    Energies are in RSU-seconds; convert with ``DramPowerModel.to_watts``.
    """

    background_j: float = 0.0
    active_j: float = 0.0
    migration_j: float = 0.0

    @property
    def total_j(self) -> float:
        """Total accumulated energy."""
        return self.background_j + self.active_j + self.migration_j

    def add_interval(self, duration_s: float, background_power: float,
                     active_power: float, migration_power: float = 0.0) -> None:
        """Accumulate one interval of constant power."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        self.background_j += background_power * duration_s
        self.active_j += active_power * duration_s
        self.migration_j += migration_power * duration_s


__all__ = [
    "PowerState",
    "STATE_POWER",
    "SELF_REFRESH_EXIT_NS",
    "MPSM_EXIT_NS",
    "check_transition",
    "transition_exit_penalty_ns",
    "DramPowerModel",
    "EnergyAccumulator",
]
