"""Reference segment allocator for the ring-buffer differential tests.

The books the allocator kept before its free queues became ring buffers:
one ``deque`` of free DSNs and one ``set`` of allocated DSNs per rank,
every operation one Python step per segment.  Easy to trust by
inspection; ``test_allocator_ring.py`` drives it and
:class:`repro.core.allocator.SegmentAllocator` through the same
operation sequences and requires equal results, equal errors and equal
queue order.  Bulk methods are the scalar method once per element.
"""

from __future__ import annotations

from collections import deque

from repro.core.addressing import DeviceAddressLayout
from repro.core.allocator import RankRole
from repro.dram.geometry import DramGeometry
from repro.errors import AllocationError


class DequeAllocator:
    """Per-rank ``deque`` free queues and ``set`` allocated sets, and a
    ``dict`` of rank roles."""

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self.layout = DeviceAddressLayout(geometry)
        self.free_queues: dict[tuple[int, int], deque[int]] = {}
        self.allocated: dict[tuple[int, int], set[int]] = {}
        for channel in range(geometry.channels):
            for rank in range(geometry.ranks_per_channel):
                self.free_queues[(channel, rank)] = deque(
                    self.layout.rank_dsns(channel, rank).tolist())
                self.allocated[(channel, rank)] = set()
        self.roles = dict.fromkeys(self.free_queues, RankRole.OPEN)

    def rank_of_dsn(self, dsn: int) -> tuple[int, int]:
        return self.layout.unpack_dsn(dsn).rank_id  # range-checked

    def set_role(self, rank_ids, role: RankRole) -> None:
        for rank_id in rank_ids:
            self.roles[rank_id] = role

    def _check_open(self, rank_id) -> None:
        if self.roles[rank_id] is not RankRole.OPEN:
            raise AllocationError(
                f"rank {rank_id} is {self.roles[rank_id].value}, not open")

    def _open(self, channel) -> list[tuple[int, int]]:
        return [(channel, rank)
                for rank in range(self.geometry.ranks_per_channel)
                if self.roles[(channel, rank)] is RankRole.OPEN]

    def _pick_rank(self, channel):
        best, best_util = None, -1.0
        for rank_id in self._open(channel):
            if not self.free_queues[rank_id]:
                continue
            util = len(self.allocated[rank_id]) \
                / self.geometry.segments_per_rank
            if util > best_util:
                best, best_util = rank_id, util
        return best

    def _take(self, rank_id, count: int) -> list[int]:
        dsns = [self.free_queues[rank_id].popleft() for _ in range(count)]
        self.allocated[rank_id].update(dsns)
        return dsns

    def allocate(self, num_segments: int) -> list[int]:
        channels = self.geometry.channels
        if num_segments % channels:
            raise AllocationError(
                f"allocation of {num_segments} segments does not divide "
                f"evenly over {channels} channels")
        per_channel = num_segments // channels
        for channel in range(channels):
            available = sum(len(self.free_queues[rank_id])
                            for rank_id in self._open(channel))
            if available < per_channel:
                raise AllocationError(
                    f"channel {channel} has only {available} free segments "
                    f"in open ranks, need {per_channel}")
        per_channel_dsns = []
        for channel in range(channels):
            dsns: list[int] = []
            while len(dsns) < per_channel:
                rank_id = self._pick_rank(channel)
                dsns.extend(self._take(rank_id, min(
                    per_channel - len(dsns),
                    len(self.free_queues[rank_id]))))
            per_channel_dsns.append(dsns)
        return [dsn for stripe in zip(*per_channel_dsns) for dsn in stripe]

    def allocate_in_rank(self, rank_id, num_segments: int) -> list[int]:
        self._check_open(rank_id)
        queue = self.free_queues[rank_id]
        if len(queue) < num_segments:
            raise AllocationError(
                f"rank {rank_id} has {len(queue)} free segments, "
                f"need {num_segments}")
        return self._take(rank_id, num_segments)

    def reserve_specific(self, dsn: int) -> None:
        rank_id = self.rank_of_dsn(dsn)
        self._check_open(rank_id)
        try:
            self.free_queues[rank_id].remove(dsn)
        except ValueError:
            raise AllocationError(f"DSN {dsn:#x} is not free") from None
        self.allocated[rank_id].add(dsn)

    def reserve_batch(self, dsns: list[int]) -> None:
        for dsn in dsns:  # a batch is range-checked before it is applied
            self.rank_of_dsn(dsn)
        for dsn in dsns:
            self.reserve_specific(dsn)

    def _release(self, dsn: int) -> None:
        rank_id = self.rank_of_dsn(dsn)
        if dsn not in self.allocated[rank_id]:
            raise AllocationError(f"DSN {dsn:#x} is not allocated")
        self.allocated[rank_id].remove(dsn)
        self.free_queues[rank_id].append(dsn)

    def free(self, dsns: list[int]) -> None:
        for dsn in dsns:
            self.rank_of_dsn(dsn)
        for dsn in dsns:
            self._release(dsn)

    def move_allocations(self, old_dsns: list[int],
                         new_dsns: list[int]) -> None:
        if len(old_dsns) != len(new_dsns):
            raise ValueError(
                f"{len(old_dsns)} sources paired with {len(new_dsns)} "
                "targets")
        for dsn in old_dsns + new_dsns:
            self.rank_of_dsn(dsn)
        for old_dsn, new_dsn in zip(old_dsns, new_dsns):
            if new_dsn not in self.allocated[self.rank_of_dsn(new_dsn)]:
                raise AllocationError(
                    f"target DSN {new_dsn:#x} is not reserved")
            self._release(old_dsn)

    # -- what the differential tests compare ---------------------------------

    def state(self) -> dict:
        return {rank_id: (list(queue), sorted(self.allocated[rank_id]),
                          self.roles[rank_id])
                for rank_id, queue in self.free_queues.items()}
