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

from repro.core.allocator import RankId, RankRole, SegmentAllocator
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
    time_ns: int
    migrated_segments: int
    migrated_bytes: int
    was_powered_down: bool


class RankRetirementManager:
    """Fences failing ranks out of the device, data intact.

    Requires the rank-level power-down policy: retirement reuses its
    consolidation machinery.  No reactivation reopens a ``RETIRED`` rank.
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
        self.records: list[RetirementRecord] = []

    # -- queries --------------------------------------------------------------

    def usable_bytes(self) -> int:
        """Device capacity excluding retired ranks."""
        retired = sum(self.allocator.role(rank_id) is RankRole.RETIRED
                      for rank_id in self.device.ranks)
        return self.geometry.total_bytes - retired * self.geometry.rank_bytes

    # -- retirement --------------------------------------------------------------

    def retire(self, rank_id: RankId, now_ns: int = 0) -> RetirementRecord:
        """Retire one rank: evacuate, fence, power off.

        Raises:
            PowerStateError: if the rank is already retired.
            AllocationError: if its live data cannot be absorbed by the
                surviving ranks of the same channel (the device is too
                full to lose a rank safely).
        """
        if self.allocator.role(rank_id) is RankRole.RETIRED:
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
        if len(live):
            # Wake parked ranks of the channel if the open ones lack room.
            self.power_down.ensure_capacity_on_channel(
                channel, len(live), exclude=rank_id, now_ns=now_ns)
            self.power_down.evacuate(
                live, {other for other in self.allocator.open_ranks()
                       if other[0] == channel and other != rank_id}, now_ns)
            self.migration.drain()
        if rank_obj.state is PowerState.SELF_REFRESH:
            self.device.set_rank_state(rank_id, PowerState.STANDBY, now_ns)
        self.allocator.park(self.device, [rank_id], PowerState.MPSM, now_ns,
                            role=RankRole.RETIRED)
        record = RetirementRecord(
            rank_id=rank_id, time_ns=now_ns, migrated_segments=len(live),
            migrated_bytes=len(live) * self.geometry.segment_bytes,
            was_powered_down=was_powered_down)
        self.records.append(record)
        return record


__all__ = ["RetirementRecord", "RankRetirementManager"]
