"""Per-rank power-state machine with residency and energy accounting.

Each :class:`Rank` tracks its power state over (simulated) time, the number
of accesses it served, and how long it spent in each state.  Ranks are
identified by ``(channel, index)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.power import (PowerState, check_transition,
                              transition_exit_penalty_ns)
from repro.errors import PowerStateError


@dataclass
class Rank:
    """One DRAM rank and its power-state history.

    Attributes:
        channel: Channel the rank belongs to.
        index: Rank index within the channel.
        state: Current power state.
    """

    channel: int
    index: int
    state: PowerState = PowerState.STANDBY
    _state_entered_at_s: float = 0.0
    residency_s: dict[PowerState, float] = field(
        default_factory=lambda: {state: 0.0 for state in PowerState})
    access_count: int = 0
    transition_count: int = 0
    exit_penalty_total_ns: float = 0.0

    @property
    def rank_id(self) -> tuple[int, int]:
        """Stable ``(channel, index)`` identifier."""
        return (self.channel, self.index)

    def set_state(self, new_state: PowerState, now_s: float) -> float:
        """Transition to ``new_state`` at simulated time ``now_s``.

        Returns:
            The exit penalty in nanoseconds paid by the transition (0.0 for
            entering a low-power state or a no-op transition).

        Raises:
            PowerStateError: on an illegal transition or time running
                backwards.
        """
        if now_s < self._state_entered_at_s:
            raise PowerStateError(
                f"time moved backwards: {now_s} < {self._state_entered_at_s}")
        if new_state is self.state:
            return 0.0
        check_transition(self.state, new_state)
        self.residency_s[self.state] += now_s - self._state_entered_at_s
        penalty_ns = transition_exit_penalty_ns(self.state, new_state)
        self.exit_penalty_total_ns += penalty_ns
        self.state = new_state
        self._state_entered_at_s = now_s
        self.transition_count += 1
        return penalty_ns

    def record_access(self, count: int = 1) -> None:
        """Count ``count`` DRAM accesses served by this rank.

        Raises:
            PowerStateError: if the rank is in MPSM (it cannot serve data).
        """
        if self.state is PowerState.MPSM:
            raise PowerStateError(
                f"rank {self.rank_id} accessed while in MPSM")
        self.access_count += count

    def finalize(self, now_s: float) -> None:
        """Close the open residency interval at the end of a simulation."""
        if now_s < self._state_entered_at_s:
            raise PowerStateError(
                f"time moved backwards: {now_s} < {self._state_entered_at_s}")
        self.residency_s[self.state] += now_s - self._state_entered_at_s
        self._state_entered_at_s = now_s

    def residency_snapshot(self, now_s: float | None = None,
                           ) -> dict[str, float]:
        """Seconds spent per power state, without mutating the rank.

        Args:
            now_s: When given, the still-open interval for the current
                state is counted up to this time (it must not precede the
                state entry time).
        """
        snapshot = {state.name.lower(): seconds
                    for state, seconds in self.residency_s.items()}
        if now_s is not None:
            if now_s < self._state_entered_at_s:
                raise PowerStateError(
                    f"time moved backwards: {now_s} < "
                    f"{self._state_entered_at_s}")
            snapshot[self.state.name.lower()] += (
                now_s - self._state_entered_at_s)
        return snapshot

    def background_energy(self, state_power: dict[PowerState, float]) -> float:
        """Background energy over recorded residencies (power-units x s)."""
        return sum(state_power[state] * seconds
                   for state, seconds in self.residency_s.items())


__all__ = ["Rank"]
