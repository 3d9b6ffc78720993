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
from repro.units import ns_to_s


@dataclass
class Rank:
    """One DRAM rank and its power-state history (integer-ns clock).

    Attributes:
        channel: Channel the rank belongs to.
        index: Rank index within the channel.
        state: Current power state.
    """

    channel: int
    index: int
    state: PowerState = PowerState.STANDBY
    _state_entered_ns: int = 0
    residency_ns: dict[PowerState, int] = field(
        default_factory=lambda: {state: 0 for state in PowerState})
    access_count: int = 0
    transition_count: int = 0
    exit_penalty_total_ns: float = 0.0

    @property
    def rank_id(self) -> tuple[int, int]:
        """Stable ``(channel, index)`` identifier."""
        return (self.channel, self.index)

    def _open_interval_ns(self, now_ns: int) -> int:
        """Time in the current state up to ``now_ns`` (never negative)."""
        if now_ns < self._state_entered_ns:
            raise PowerStateError(
                f"time moved backwards: {now_ns} < {self._state_entered_ns}")
        return now_ns - self._state_entered_ns

    def set_state(self, new_state: PowerState, now_ns: int) -> float:
        """Transition to ``new_state`` at simulated time ``now_ns``.

        Returns:
            The exit penalty in nanoseconds paid by the transition (0.0 for
            entering a low-power state or a no-op transition).

        Raises:
            PowerStateError: on an illegal transition or time running
                backwards.
        """
        elapsed_ns = self._open_interval_ns(now_ns)
        if new_state is self.state:
            return 0.0
        check_transition(self.state, new_state)
        self.residency_ns[self.state] += elapsed_ns
        penalty_ns = transition_exit_penalty_ns(self.state, new_state)
        self.exit_penalty_total_ns += penalty_ns
        self.state = new_state
        self._state_entered_ns = now_ns
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

    def finalize(self, now_ns: int) -> None:
        """Close the open residency interval at the end of a simulation."""
        self.residency_ns[self.state] += self._open_interval_ns(now_ns)
        self._state_entered_ns = now_ns

    def residency_snapshot(self, now_ns: int | None = None,
                           ) -> dict[str, float]:
        """Seconds spent per power state, without mutating the rank;
        with ``now_ns``, the open interval counts up to it."""
        residency = dict(self.residency_ns)
        if now_ns is not None:
            residency[self.state] += self._open_interval_ns(now_ns)
        return {state.name.lower(): ns_to_s(ns)
                for state, ns in residency.items()}

    def background_energy(self, state_power: dict[PowerState, float]) -> float:
        """Background energy over recorded residencies (power-units x s)."""
        return sum(state_power[state] * ns_to_s(ns)
                   for state, ns in self.residency_ns.items())


__all__ = ["Rank"]
