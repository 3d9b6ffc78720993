"""Transparent rank retirement — the paper's reliability extension.

The conclusion notes that DTL "opens up interesting research directions by
providing means for flexible memory management to improve reliability,
availability, as well as security".  This module implements the most
direct of those: when a rank starts reporting correctable-error storms
(or fails a patrol scrub), the DTL can *retire* it — migrate every live
segment off, fence it from future allocation, and park it in MPSM —
without the host ever noticing beyond a few hundred nanoseconds of
migration interference.

Retirement is strictly stronger than power-down: a retired rank never
reactivates, and the device's advertised capacity shrinks accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocator import RankId, SegmentAllocator
from repro.core.migration import MigrationEngine
from repro.core.power_down import RankPowerDownPolicy
from repro.core.tables import TranslationTables
from repro.dram.device import DramDevice
from repro.dram.power import PowerState
from repro.errors import PowerStateError


@dataclass(frozen=True)
class RetirementRecord:
    """Outcome of one rank retirement."""

    rank_id: RankId
    time_s: float
    migrated_segments: int
    migrated_bytes: int
    was_powered_down: bool


class RankRetirementManager:
    """Fences failing ranks out of the device, data intact.

    Requires the rank-level power-down policy: retirement reuses its
    consolidation machinery and its active-rank bookkeeping.
    """

    def __init__(self, device: DramDevice, allocator: SegmentAllocator,
                 tables: TranslationTables, migration: MigrationEngine,
                 power_down: RankPowerDownPolicy):
        self.device = device
        self.geometry = device.geometry
        self.allocator = allocator
        self.tables = tables
        self.migration = migration
        self.power_down = power_down
        self.retired: set[RankId] = set()
        self.records: list[RetirementRecord] = []

    # -- queries --------------------------------------------------------------

    def is_retired(self, rank_id: RankId) -> bool:
        """True if the rank has been fenced."""
        return rank_id in self.retired

    def usable_bytes(self) -> int:
        """Device capacity excluding retired ranks."""
        return (self.geometry.total_bytes
                - len(self.retired) * self.geometry.rank_bytes)

    # -- retirement --------------------------------------------------------------

    def retire(self, rank_id: RankId, now_s: float = 0.0) -> RetirementRecord:
        """Retire one rank: evacuate, fence, power off.

        Raises:
            PowerStateError: if the rank is already retired.
            AllocationError: if its live data cannot be absorbed by the
                surviving ranks of the same channel (the device is too
                full to lose a rank safely).
        """
        if rank_id in self.retired:
            raise PowerStateError(f"rank {rank_id} is already retired")
        if self.migration.has_tracked_requests:
            # Background consolidation copies may have this rank as their
            # source or target; finished, every segment allocated in it
            # is a mapped one that can be evacuated.
            self.migration.drain()
        channel, rank = rank_id
        rank_obj = self.device.rank(channel, rank)
        was_powered_down = rank_obj.state is PowerState.MPSM
        live = self.allocator.allocated_in_rank(rank_id)
        migrated_bytes = 0
        if len(live):
            if was_powered_down:  # pragma: no cover - invariant guard
                raise PowerStateError(
                    f"rank {rank_id} is in MPSM yet holds data")
            migrated_bytes = self._evacuate(rank_id, live, now_s)
        # Fence: out of the active set, never to be reactivated.
        self.power_down.quarantine(rank_id)
        self.retired.add(rank_id)
        if rank_obj.state is PowerState.SELF_REFRESH:
            self.device.set_rank_state(rank_id, PowerState.STANDBY, now_s)
        if rank_obj.state is not PowerState.MPSM:
            self.device.set_rank_state(rank_id, PowerState.MPSM, now_s)
        record = RetirementRecord(
            rank_id=rank_id, time_s=now_s, migrated_segments=len(live),
            migrated_bytes=migrated_bytes,
            was_powered_down=was_powered_down)
        self.records.append(record)
        return record

    def _evacuate(self, rank_id: RankId, live: np.ndarray,
                  now_s: float) -> int:
        """Move every live segment to surviving ranks of the channel."""
        channel = rank_id[0]
        survivors = {other for other in self.power_down.active_rank_ids()
                     if other[0] == channel and other != rank_id
                     and other not in self.retired}
        free = sum(self.allocator.free_in_rank(other) for other in survivors)
        if free < len(live):
            # Wake powered-down (non-retired) ranks to make room.
            self.power_down.ensure_capacity_on_channel(
                channel, len(live), exclude=self.retired | {rank_id},
                now_s=now_s)
            survivors = {other for other in self.power_down.active_rank_ids()
                         if other[0] == channel and other != rank_id
                         and other not in self.retired}
        self.power_down.evacuate(live, survivors, now_s)
        self.migration.drain()
        return len(live) * self.geometry.segment_bytes


__all__ = ["RetirementRecord", "RankRetirementManager"]
