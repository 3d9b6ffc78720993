"""Whole-device DRAM model: a grid of ranks plus power/energy accounting.

:class:`DramDevice` owns one :class:`~repro.dram.rank.Rank` per
(channel, rank-index) slot, applies rank-group power transitions, and can
report instantaneous power or integrate energy over time through the
:class:`~repro.dram.power.DramPowerModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.dram.power import DramPowerModel, PowerState
from repro.dram.rank import Rank
from repro.dram.timing import DDR4_2933, DramTiming
from repro.telemetry import EventKind, EventTrace, MetricsRegistry

RankId = tuple[int, int]


def rank_key(rank_id: RankId) -> str:
    """Metric-name-safe label for a rank, e.g. ``ch0r1``."""
    return f"ch{rank_id[0]}r{rank_id[1]}"


@dataclass
class DramDevice:
    """A DRAM subsystem of ``geometry.total_ranks`` ranks.

    Attributes:
        geometry: Structural parameters.
        power_model: Analytical power model (defaults to one calibrated to
            the paper's Table 2 / Figure 11 numbers).
        timing: DDR4 timing set.
    """

    geometry: DramGeometry
    power_model: DramPowerModel = None  # type: ignore[assignment]
    timing: DramTiming = DDR4_2933
    ranks: dict[RankId, Rank] = field(default_factory=dict)
    _registry: MetricsRegistry | None = field(default=None, repr=False)
    _trace: EventTrace | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.power_model is None:
            self.power_model = DramPowerModel(geometry=self.geometry)
        if self.power_model.geometry != self.geometry:
            raise ValueError("power model geometry does not match device")
        if not self.ranks:
            self.ranks = {
                (channel, index): Rank(channel=channel, index=index)
                for channel in range(self.geometry.channels)
                for index in range(self.geometry.ranks_per_channel)
            }

    # -- lookups ------------------------------------------------------------

    def rank(self, channel: int, index: int) -> Rank:
        """Return the rank at ``(channel, index)``."""
        try:
            return self.ranks[(channel, index)]
        except KeyError:
            raise KeyError(f"no rank ({channel}, {index})") from None

    def ranks_in_channel(self, channel: int) -> list[Rank]:
        """All ranks on one channel, ordered by index."""
        return [self.ranks[(channel, index)]
                for index in range(self.geometry.ranks_per_channel)]

    def rank_group(self, group_index: int) -> list[Rank]:
        """The rank-group with index ``group_index`` (one rank per channel)."""
        return [self.ranks[(channel, group_index)]
                for channel in range(self.geometry.channels)]

    def record_accesses(self, channels: np.ndarray,
                        ranks: np.ndarray) -> None:
        """Bulk-count accesses: one :meth:`Rank.record_access` per rank.

        Equivalent to ``rank(c, r).record_access()`` for every paired
        ``(c, r)`` element, but with per-rank totals accumulated by
        ``np.bincount`` first.
        """
        per_channel = self.geometry.ranks_per_channel
        codes = (np.asarray(channels, dtype=np.int64) * per_channel
                 + np.asarray(ranks, dtype=np.int64))
        for code, count in enumerate(np.bincount(codes)):
            if count:
                self.rank(code // per_channel,
                          code % per_channel).record_access(int(count))

    def state_counts(self) -> dict[PowerState, int]:
        """Number of ranks currently in each power state."""
        counts = {state: 0 for state in PowerState}
        for rank in self.ranks.values():
            counts[rank.state] += 1
        return counts

    def standby_ranks(self, channel: int) -> list[int]:
        """Indices of the standby (active) ranks on ``channel``."""
        return [rank.index for rank in self.ranks_in_channel(channel)
                if rank.state is PowerState.STANDBY]

    def standby_ranks_per_channel(self, channel: int) -> int:
        """Count of standby (active) ranks on ``channel``."""
        return len(self.standby_ranks(channel))

    def standby_blocks(self, channel: int,
                       granularity: int) -> list[tuple[int, ...]]:
        """Aligned blocks of ``granularity`` ranks, every member in standby.

        A block is the unit that enters and leaves self-refresh together
        (a CKE pair on the paper's testbed, Section 5.1).
        """
        standby = set(self.standby_ranks(channel))
        blocks = (tuple(range(start, start + granularity)) for start
                  in range(0, self.geometry.ranks_per_channel, granularity))
        return [block for block in blocks if standby.issuperset(block)]

    # -- telemetry -----------------------------------------------------------

    def attach_telemetry(self, registry: MetricsRegistry,
                         trace: EventTrace | None = None) -> None:
        """Route power transitions into a shared registry + event trace."""
        self._registry = registry
        self._trace = trace

    def _transition(self, rank: Rank, state: PowerState,
                    now_ns: int) -> float:
        """Apply one rank transition, recording telemetry when attached."""
        old_state = rank.state
        penalty_ns = rank.set_state(state, now_ns)
        if old_state is state:
            return penalty_ns
        if self._registry is not None:
            self._registry.counter("dram.power_transitions").inc()
            self._registry.counter(
                f"dram.power_transitions.to_{state.name.lower()}").inc()
        if self._trace is not None:
            self._trace.record(EventKind.POWER_TRANSITION, time=now_ns,
                               rank=rank_key(rank.rank_id),
                               from_state=old_state.name.lower(),
                               to_state=state.name.lower(),
                               penalty_ns=penalty_ns)
        return penalty_ns

    def record_ecc_error(self, rank_id: RankId, bits: int = 1,
                         now_ns: int = 0) -> bool:
        """Account one ECC event on ``rank_id``; True when corrected.

        Single-bit errors are corrected in place (SECDED); multi-bit
        errors are detected-but-uncorrected and poison the line at the
        requester — either way the event is never silent, which is what
        the reliability report's ``detected`` tally leans on.
        """
        corrected = bits < 2
        if self._registry is not None:
            self._registry.counter("dram.ecc.errors").inc()
            outcome = "corrected" if corrected else "uncorrected"
            self._registry.counter(f"dram.ecc.{outcome}").inc()
            self._registry.counter(
                f"dram.ecc.errors.{rank_key(rank_id)}").inc()
        if self._trace is not None:
            self._trace.record(EventKind.ECC_ERROR, time=now_ns,
                               rank=rank_key(rank_id), bits=bits,
                               corrected=corrected)
        return corrected

    def residency_by_rank(self, now_ns: int | None = None,
                          ) -> dict[str, dict[str, float]]:
        """Every rank's :meth:`Rank.residency_snapshot`, keyed like
        ``ch0r1``."""
        return {rank_key(rank_id): rank.residency_snapshot(now_ns)
                for rank_id, rank in sorted(self.ranks.items())}

    # -- transitions ---------------------------------------------------------

    def set_rank_state(self, rank_id: RankId, state: PowerState,
                       now_ns: int) -> float:
        """Transition a single rank; returns exit penalty in ns."""
        return self._transition(self.ranks[rank_id], state, now_ns)

    def wake_block(self, channel: int, rank: int, granularity: int,
                   now_ns: int) -> tuple[float, list[int]]:
        """Wake every self-refreshed member of ``rank``'s aligned block.

        The whole block wakes together: two ranks share a CKE pin on
        the paper's testbed, so self-refresh exit is a pair operation.
        Returns the exit penalty (ns; the members' exits overlap, so the
        largest, not the sum) and the ranks woken, in index order.
        """
        start = rank // granularity * granularity
        woken = [member for member in range(start, start + granularity)
                 if self.ranks[(channel, member)].state
                 is PowerState.SELF_REFRESH]
        penalty = max((self.set_rank_state((channel, member),
                                           PowerState.STANDBY, now_ns)
                       for member in woken), default=0.0)
        return penalty, woken

    # -- power / energy -------------------------------------------------------

    def background_power(self) -> float:
        """Instantaneous background power (RSU) for the current states."""
        return self.power_model.background_power(self.state_counts())

    def total_power(self, bandwidth_gbs: float) -> float:
        """Instantaneous total power at the given consumed bandwidth (RSU)."""
        return self.background_power() + self.power_model.active_power(
            bandwidth_gbs)

    def finalize(self, now_ns: int) -> None:
        """Close all ranks' residency intervals."""
        for rank in self.ranks.values():
            rank.finalize(now_ns)

    def background_energy(self) -> float:
        """Total background energy accumulated so far (RSU-seconds).

        Call :meth:`finalize` first to close open residency intervals.
        """
        return sum(rank.background_energy(self.power_model.state_power)
                   for rank in self.ranks.values())


__all__ = ["DramDevice", "RankId", "rank_key"]
