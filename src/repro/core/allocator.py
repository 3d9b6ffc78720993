"""Segment allocator: per-rank free/allocated segment queues.

Implements the paper's balancing policy (Section 4.3):

* Every channel contributes an **equal number of free segments** to each
  allocation so per-VM channel bandwidth stays balanced.
* Within a channel, the free queue of the rank with the **highest capacity
  utilisation** (among ranks allowed to serve allocations) has priority —
  this packs data into few ranks and minimises later migration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.addressing import DeviceAddressLayout
from repro.dram.geometry import DramGeometry
from repro.errors import AllocationError

RankId = tuple[int, int]


@dataclass
class RankUsage:
    """Allocation snapshot of one rank."""

    rank_id: RankId
    allocated: int
    free: int

    @property
    def capacity(self) -> int:
        """Total segments in the rank."""
        return self.allocated + self.free

    @property
    def utilization(self) -> float:
        """Fraction of segments allocated."""
        return self.allocated / self.capacity if self.capacity else 0.0


class SegmentAllocator:
    """Tracks free and allocated segments for every rank in the device."""

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self.layout = DeviceAddressLayout(geometry)
        self._free: dict[RankId, deque[int]] = {}
        self._allocated: dict[RankId, set[int]] = {}
        for channel in range(geometry.channels):
            for rank in range(geometry.ranks_per_channel):
                self._free[(channel, rank)] = deque(
                    self.layout.rank_dsns(channel, rank).tolist())
                self._allocated[(channel, rank)] = set()

    # -- queries --------------------------------------------------------------

    def rank_of_dsn(self, dsn: int) -> RankId:
        """``(channel, rank)`` owning segment ``dsn``."""
        location = self.layout.unpack_dsn(dsn)
        return location.rank_id

    def ranks_of_dsns(self, dsns: list[int]) -> list[RankId]:
        """``(channel, rank)`` pairs owning each segment in ``dsns``."""
        if not dsns:
            return []
        if len(dsns) == 1:
            # A lone DSN (every background-pumped retire, every scalar
            # move) skips the list -> array -> list round trip.
            return [self.rank_of_dsn(dsns[0])]
        channels, ranks, _ = self.layout.unpack_dsn_batch(
            np.asarray(dsns, dtype=np.int64))
        return list(zip(channels.tolist(), ranks.tolist()))

    def _split_by_rank(self, dsns: list[int],
                       ) -> list[tuple[RankId, list[int]]]:
        """``dsns`` split by owning rank, input order kept within a rank."""
        array = np.asarray(dsns, dtype=np.int64)
        channels, ranks, _ = self.layout.unpack_dsn_batch(array)
        width = self.geometry.channels
        keys = ranks * width + channels
        return [((key % width, key // width), array[keys == key].tolist())
                for key in np.flatnonzero(np.bincount(keys)).tolist()]

    def usage(self, rank_id: RankId) -> RankUsage:
        """Allocation snapshot of one rank."""
        return RankUsage(rank_id=rank_id,
                         allocated=len(self._allocated[rank_id]),
                         free=len(self._free[rank_id]))

    def allocated_in_rank(self, rank_id: RankId) -> list[int]:
        """DSNs currently allocated in ``rank_id`` (sorted)."""
        return sorted(self._allocated[rank_id])

    def free_dsns_in_rank(self, rank_id: RankId) -> list[int]:
        """Free DSNs of ``rank_id`` in queue order."""
        return list(self._free[rank_id])

    def free_in_rank(self, rank_id: RankId) -> int:
        """Number of free segments in ``rank_id``."""
        return len(self._free[rank_id])

    def allocated_count(self) -> int:
        """Total allocated segments in the device."""
        return sum(len(dsns) for dsns in self._allocated.values())

    def free_count(self, allowed_ranks: set[RankId] | None = None) -> int:
        """Total free segments (optionally restricted to ``allowed_ranks``)."""
        items = self._free.items()
        return sum(len(queue) for rank_id, queue in items
                   if allowed_ranks is None or rank_id in allowed_ranks)

    def channel_allocated(self, channel: int) -> int:
        """Allocated segments on one channel."""
        return sum(len(self._allocated[(channel, rank)])
                   for rank in range(self.geometry.ranks_per_channel))

    def is_allocated(self, dsn: int) -> bool:
        """True if segment ``dsn`` is currently allocated."""
        return dsn in self._allocated[self.rank_of_dsn(dsn)]

    # -- allocation -------------------------------------------------------------

    def _pick_rank(self, channel: int,
                   allowed_ranks: set[RankId]) -> RankId | None:
        """Most-utilised allowed rank on ``channel`` that still has space."""
        best: RankId | None = None
        best_util = -1.0
        for rank in range(self.geometry.ranks_per_channel):
            rank_id = (channel, rank)
            if rank_id not in allowed_ranks or not self._free[rank_id]:
                continue
            util = self.usage(rank_id).utilization
            if util > best_util:
                best, best_util = rank_id, util
        return best

    def allocate(self, num_segments: int,
                 allowed_ranks: set[RankId] | None = None) -> list[int]:
        """Allocate ``num_segments`` segments, spread evenly over channels.

        Args:
            num_segments: Must be a multiple of the channel count so each
                channel contributes equally (AUs always satisfy this).
            allowed_ranks: Ranks permitted to serve the allocation (e.g. the
                currently active ranks).  Defaults to all ranks.

        Returns:
            The allocated DSNs.

        Raises:
            AllocationError: when the request cannot be satisfied; the
                allocator state is left unchanged in that case.
        """
        channels = self.geometry.channels
        if num_segments % channels:
            raise AllocationError(
                f"allocation of {num_segments} segments does not divide "
                f"evenly over {channels} channels")
        if allowed_ranks is None:
            allowed_ranks = set(self._free)
        per_channel = num_segments // channels
        for channel in range(channels):
            available = sum(
                len(self._free[(channel, rank)])
                for rank in range(self.geometry.ranks_per_channel)
                if (channel, rank) in allowed_ranks)
            if available < per_channel:
                raise AllocationError(
                    f"channel {channel} has only {available} free segments "
                    f"in allowed ranks, need {per_channel}")
        per_channel_dsns: list[list[int]] = []
        for channel in range(channels):
            dsns: list[int] = []
            remaining = per_channel
            while remaining:
                rank_id = self._pick_rank(channel, allowed_ranks)
                if rank_id is None:  # pragma: no cover - guarded above
                    raise AllocationError("allocator invariant violated")
                take = min(remaining, len(self._free[rank_id]))
                dsns.extend(self._take(rank_id, take))
                remaining -= take
            per_channel_dsns.append(dsns)
        # Interleave round-robin so consecutive host segments land on
        # consecutive channels (Figure 6's segment-granular channel
        # interleaving).
        return [dsn for stripe in zip(*per_channel_dsns) for dsn in stripe]

    def allocate_in_rank(self, rank_id: RankId, num_segments: int) -> list[int]:
        """Allocate segments from a single specific rank (migration target)."""
        queue = self._free[rank_id]
        if len(queue) < num_segments:
            raise AllocationError(
                f"rank {rank_id} has {len(queue)} free segments, "
                f"need {num_segments}")
        return self._take(rank_id, num_segments)

    def _take(self, rank_id: RankId, num_segments: int) -> list[int]:
        """Allocate the head of ``rank_id``'s free queue."""
        popleft = self._free[rank_id].popleft
        dsns = [popleft() for _ in range(num_segments)]
        self._allocated[rank_id].update(dsns)
        return dsns

    def reserve_specific(self, dsn: int) -> None:
        """Allocate one specific free segment (migration destinations)."""
        rank_id = self.rank_of_dsn(dsn)
        try:
            self._free[rank_id].remove(dsn)
        except ValueError:
            raise AllocationError(f"DSN {dsn:#x} is not free") from None
        self._allocated[rank_id].add(dsn)

    def free(self, dsns: list[int]) -> None:
        """Return segments to their ranks' free queues, in input order.

        The first DSN that is not allocated (or is named a second time)
        raises, with the ones before it freed.
        """
        if len(dsns) > 1:
            # A whole AU: when every segment checks out, each rank's
            # share moves at once.
            shares = self._split_by_rank(dsns)
            if all(len(set(share)) == len(share)
                   and self._allocated[rank_id].issuperset(share)
                   for rank_id, share in shares):
                for rank_id, share in shares:
                    self._allocated[rank_id].difference_update(share)
                    self._free[rank_id].extend(share)
                return
        for dsn, rank_id in zip(dsns, self.ranks_of_dsns(dsns)):
            self._release(dsn, rank_id)

    def _release(self, dsn: int, rank_id: RankId) -> None:
        """Move one allocated segment of ``rank_id`` to its free queue."""
        allocated = self._allocated[rank_id]
        if dsn not in allocated:
            raise AllocationError(f"DSN {dsn:#x} is not allocated")
        allocated.remove(dsn)
        self._free[rank_id].append(dsn)

    def move_allocation(self, old_dsn: int, new_dsn: int) -> None:
        """Transfer an allocation between segments after a migration copy.

        ``new_dsn`` must already be allocated (reserved by the migration
        engine); ``old_dsn`` is released.
        """
        self.move_allocations([old_dsn], [new_dsn])

    def move_allocations(self, old_dsns: list[int],
                         new_dsns: list[int]) -> None:
        """:meth:`move_allocation` over paired lists, in order.

        The first pair whose target is not reserved or whose source is
        not allocated raises, with the pairs before it already moved.
        """
        if len(old_dsns) != len(new_dsns):
            raise ValueError(
                f"{len(old_dsns)} sources paired with {len(new_dsns)} "
                "targets")
        moves = zip(old_dsns, new_dsns, self.ranks_of_dsns(old_dsns),
                    self.ranks_of_dsns(new_dsns))
        for old_dsn, new_dsn, old_rank, new_rank in moves:
            if new_dsn not in self._allocated[new_rank]:
                raise AllocationError(
                    f"target DSN {new_dsn:#x} is not reserved")
            self._release(old_dsn, old_rank)


__all__ = ["RankId", "RankUsage", "SegmentAllocator"]
