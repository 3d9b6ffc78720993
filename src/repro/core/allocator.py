"""Segment allocator: per-rank free/allocated segment queues.

Implements the paper's balancing policy (Section 4.3):

* Every channel contributes an **equal number of free segments** to each
  allocation so per-VM channel bandwidth stays balanced.
* Within a channel, the free queue of the rank with the **highest capacity
  utilisation** (among the ``OPEN`` ranks) has priority — this packs data
  into few ranks and minimises later migration.

Layout (Table 5's "free" and "allocated segment queues"): every rank's
free queue is one row of a flat ring-buffer array — ``segments_per_rank``
DSN slots, a head and a count — and "allocated" is one flag per DSN.
Every segment of a rank is in exactly one of the two, so a rank's
allocated count is its capacity minus its free count.  The FIFO order of
each free queue is part of the contract: it decides which DSN the next
allocation is handed.  Data reaches a rank only through this class, so
each rank's :class:`RankRole` lives here too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.addressing import (DeviceAddressLayout, StructureSize,
                                   all_distinct)
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.errors import AddressError, AllocationError, PowerStateError

RankId = tuple[int, int]


class RankRole(enum.Enum):
    """May this rank take data?  (docs/MECHANISMS.md, "Rank roles")"""

    OPEN = "open"  # yes: in standby, or in self-refresh and woken by it
    FENCED = "fenced"  # a power-down victim still being evacuated
    PARKED = "parked"  # by power-down, or an empty SR victim in MPSM
    RETIRED = "retired"


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
    """Tracks free and allocated segments for every rank in the device.

    Bulk methods take DSNs as a list or an int64 array and hand them out
    as int64 arrays, so an AU's segments pass between the allocator, the
    tables and the migration engine without becoming Python objects.
    """

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self.layout = DeviceAddressLayout(geometry)
        ranks = geometry.ranks_per_channel
        # Ring row of each rank (channel-major).
        self._row_of: dict[RankId, int] = {
            (channel, rank): channel * ranks + rank
            for channel in range(geometry.channels)
            for rank in range(ranks)}
        # Free queues: row r holds rank r's free DSNs in FIFO order, from
        # slot ``_head[r]``, ``_free[r]`` of them, wrapping at the end.
        # Each row starts as its rank's ``layout.rank_dsns``, built for
        # all rows in one broadcast.
        rows = np.arange(len(self._row_of))
        self._ring = ((((rows % ranks) << self.layout.rank_shift)
                       | (rows // ranks))[:, None]
                      | (np.arange(geometry.segments_per_rank)
                         << geometry.channel_bits))
        self._head = [0] * len(self._row_of)
        self._free = [geometry.segments_per_rank] * len(self._row_of)
        # Allocated "queue": one flag per DSN.
        self._in_use = np.zeros(geometry.total_segments, dtype=bool)
        # One role per ring row.
        self._roles = [RankRole.OPEN] * len(self._row_of)

    def table5_rows(self) -> dict[str, StructureSize]:
        """The Table 5 rows these books are: one DSN per device segment
        in each queue (the allocated queue is held as a 1-bit-per-DSN
        map, one byte per flag in numpy)."""
        dsn_bits = self.layout.dsn_bits
        return {
            "free_segment_queues": StructureSize(self._ring.size, dsn_bits),
            "allocated_segment_queues": StructureSize(self._in_use.size,
                                                      dsn_bits),
        }

    # -- queries --------------------------------------------------------------

    def rank_of_dsn(self, dsn: int) -> RankId:
        """``(channel, rank)`` owning segment ``dsn``."""
        if not 0 <= dsn < self.geometry.total_segments:
            raise AddressError(f"DSN {dsn:#x} out of range")
        return (self.layout.channel_of_dsn(dsn), self.layout.rank_of_dsn(dsn))

    def ranks_of_dsns(self, dsns: list[int] | np.ndarray) -> list[RankId]:
        """``(channel, rank)`` pairs owning each segment in ``dsns``."""
        if not len(dsns):
            return []
        if len(dsns) == 1:
            # A lone DSN (every background-pumped retire, every scalar
            # move) is decoded without building arrays.
            return [self.rank_of_dsn(int(dsns[0]))]
        channels, ranks, _ = self.layout.unpack_dsn_batch(dsns)
        return list(zip(channels.tolist(), ranks.tolist()))

    def _rows_of(self, dsns: np.ndarray) -> np.ndarray:
        """Ring row of each DSN's rank (range-checked)."""
        channels, ranks, _ = self.layout.unpack_dsn_batch(dsns)
        return channels * self.geometry.ranks_per_channel + ranks

    def _queue(self, row: int, count: int | None = None) -> np.ndarray:
        """The first ``count`` entries (default: all) of a rank's free
        queue, in order — a view of the ring unless they wrap."""
        head = self._head[row]
        end = head + (self._free[row] if count is None else count)
        ring = self._ring[row]
        if end <= len(ring):
            return ring[head:end]
        return np.concatenate((ring[head:], ring[:end - len(ring)]))

    def usage(self, rank_id: RankId) -> RankUsage:
        """Allocation snapshot of one rank."""
        free = self._free[self._row_of[rank_id]]
        return RankUsage(rank_id=rank_id,
                         allocated=self.geometry.segments_per_rank - free,
                         free=free)

    def allocated_in_rank(self, rank_id: RankId) -> np.ndarray:
        """DSNs currently allocated in ``rank_id`` (ascending)."""
        dsns = self.layout.rank_dsns(*rank_id)
        return dsns[self._in_use[dsns]]

    def free_dsns_in_rank(self, rank_id: RankId) -> np.ndarray:
        """Free DSNs of ``rank_id`` in queue order."""
        return self._queue(self._row_of[rank_id]).copy()

    def free_in_rank(self, rank_id: RankId) -> int:
        """Number of free segments in ``rank_id``."""
        return self._free[self._row_of[rank_id]]

    def allocated_count(self) -> int:
        """Total allocated segments in the device."""
        return self.geometry.total_segments - sum(self._free)

    def free_count(self) -> int:
        """Free segments an allocation can take: those of ``OPEN`` ranks."""
        return sum(free for free, role in zip(self._free, self._roles)
                   if role is RankRole.OPEN)

    # -- roles -----------------------------------------------------------

    def role(self, rank_id: RankId) -> RankRole:
        """The role of ``rank_id``."""
        return self._roles[self._row_of[rank_id]]

    def open_ranks(self) -> set[RankId]:
        """Every rank that may take data."""
        return {rank_id for rank_id, row in self._row_of.items()
                if self._roles[row] is RankRole.OPEN}

    def set_role(self, rank_ids: list[RankId], role: RankRole) -> None:
        """Fence or reopen ranks; closing one for good is :meth:`park`."""
        for rank_id in rank_ids:
            self._roles[self._row_of[rank_id]] = role

    def park(self, device: DramDevice, rank_ids: list[RankId],
             state: PowerState, now_ns: int,
             role: RankRole = RankRole.PARKED) -> float:
        """Close ``rank_ids`` with ``role`` and move them to ``state`` —
        the one way into a state that loses data.  Returns the largest
        exit penalty (ns).

        Raises:
            PowerStateError: if any of them holds allocated segments
                (nothing changes then).
        """
        for rank_id in rank_ids:
            if self.usage(rank_id).allocated:
                raise PowerStateError(
                    f"rank {rank_id} holds {self.usage(rank_id).allocated} "
                    f"allocated segments; {state.name} would lose them")
        self.set_role(rank_ids, role)
        return max((device.set_rank_state(rank_id, state, now_ns)
                    for rank_id in rank_ids), default=0.0)

    def _check_open(self, row: int) -> None:
        if self._roles[row] is not RankRole.OPEN:
            raise AllocationError(
                f"rank {divmod(row, self.geometry.ranks_per_channel)} is "
                f"{self._roles[row].value}, not open")

    def channel_allocated(self, channel: int) -> int:
        """Allocated segments on one channel."""
        ranks = self.geometry.ranks_per_channel
        return (self.geometry.segments_per_channel
                - sum(self._free[channel * ranks:(channel + 1) * ranks]))

    def allocated_counts(self) -> list[int]:
        """Allocated segments per rank, channel-major (the order of
        ``(channel, rank)`` over channels, then ranks)."""
        return np.bincount(self._rows_of(np.flatnonzero(self._in_use)),
                           minlength=len(self._free)).tolist()

    def allocated_mask(self) -> np.ndarray:
        """One flag per DSN: True where it is allocated (a copy)."""
        return self._in_use.copy()

    def is_allocated(self, dsn: int) -> bool:
        """True if segment ``dsn`` is currently allocated."""
        if not 0 <= dsn < self.geometry.total_segments:
            raise AddressError(f"DSN {dsn:#x} out of range")
        return self._in_use.item(dsn)

    # -- allocation -------------------------------------------------------------

    def allocate(self, num_segments: int) -> np.ndarray:
        """Allocate ``num_segments`` segments of ``OPEN`` ranks, spread
        evenly over channels.

        Args:
            num_segments: Must be a multiple of the channel count so each
                channel contributes equally (AUs always satisfy this).

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
        per_channel = num_segments // channels
        ranks = self.geometry.ranks_per_channel
        # Per channel: open ranks with space, fewest free segments (most
        # utilised) first, lowest index among equals, each emptied in turn.
        orders = []
        for channel in range(channels):
            first = channel * ranks
            order = sorted((free, row) for row, free in enumerate(
                self._free[first:first + ranks], first)
                if free and self._roles[row] is RankRole.OPEN)
            available = sum(free for free, _ in order)
            if available < per_channel:
                raise AllocationError(
                    f"channel {channel} has only {available} free segments "
                    f"in open ranks, need {per_channel}")
            orders.append(order)
        per_channel_dsns: list[np.ndarray] = []
        for order in orders:
            taken = [np.empty(0, dtype=np.int64)]
            remaining = per_channel
            for free, row in order:
                if not remaining:
                    break
                take = min(remaining, free)
                taken.append(self._take(row, take))
                remaining -= take
            per_channel_dsns.append(np.concatenate(taken))
        # Interleave round-robin so consecutive host segments land on
        # consecutive channels (Figure 6's segment-granular channel
        # interleaving).
        return np.stack(per_channel_dsns, axis=1).ravel()

    def allocate_in_rank(self, rank_id: RankId,
                         num_segments: int) -> np.ndarray:
        """Allocate segments from one open rank (migration target)."""
        row = self._row_of[rank_id]
        self._check_open(row)
        if self._free[row] < num_segments:
            raise AllocationError(
                f"rank {rank_id} has {self._free[row]} free segments, "
                f"need {num_segments}")
        return self._take(row, num_segments)

    def _take(self, row: int, num_segments: int) -> np.ndarray:
        """Allocate the head of a rank's free queue: one wrapping slice."""
        dsns = self._queue(row, num_segments).copy()
        self._head[row] = ((self._head[row] + num_segments)
                           % self.geometry.segments_per_rank)
        self._free[row] -= num_segments
        self._in_use[dsns] = True
        return dsns

    def _append(self, row: int, dsns: np.ndarray) -> None:
        """Put ``dsns`` at the tail of a rank's free queue: one wrapping
        write."""
        ring = self._ring[row]
        tail = (self._head[row] + self._free[row]) % len(ring)
        room = len(ring) - tail
        ring[tail:tail + len(dsns)] = dsns[:room]
        ring[:max(0, len(dsns) - room)] = dsns[room:]
        self._free[row] += len(dsns)

    def _append_shares(self, dsns: np.ndarray, rows: np.ndarray) -> None:
        """Hand ``dsns`` to their ranks' free queues, input order kept
        within a rank."""
        # A stable sort of 16-bit keys is one radix pass over all shares.
        grouped = dsns[np.argsort(rows.astype(np.uint16), kind="stable")]
        counts = np.bincount(rows)
        ends = np.cumsum(counts).tolist()
        for row in np.flatnonzero(counts).tolist():
            self._append(row, grouped[ends[row] - counts[row]:ends[row]])

    def reserve_specific(self, dsn: int) -> None:
        """Allocate one free segment of an open rank (migration target)."""
        row = self._row_of[self.rank_of_dsn(dsn)]
        self._check_open(row)
        if self._in_use.item(dsn):
            raise AllocationError(f"DSN {dsn:#x} is not free")
        self._in_use[dsn] = True
        self._drop_reserved(row)

    def reserve_batch(self, dsns: list[int] | np.ndarray) -> None:
        """:meth:`reserve_specific` for every element of ``dsns``, in
        order.

        Distinct free segments of open ranks leave their queues
        together; otherwise the first DSN that cannot be reserved
        (taken, named twice, on a closed rank) raises, with the ones
        before it reserved.
        """
        dsns = np.asarray(dsns, dtype=np.int64)
        if len(dsns) > 1:
            rows = np.flatnonzero(np.bincount(self._rows_of(dsns))).tolist()
            if (not self._in_use[dsns].any() and all_distinct(dsns)
                    and all(self._roles[row] is RankRole.OPEN
                            for row in rows)):
                self._in_use[dsns] = True
                for row in rows:
                    self._drop_reserved(row)
                return
        for dsn in dsns.tolist():
            self.reserve_specific(dsn)

    def _drop_reserved(self, row: int) -> None:
        """Close the gaps left in a rank's free queue by segments just
        marked allocated; the others keep their order."""
        queue = self._queue(row)
        rest = queue[~self._in_use[queue]]
        self._head[row] = 0
        self._free[row] = len(rest)
        self._ring[row, :len(rest)] = rest

    def free(self, dsns: list[int] | np.ndarray) -> None:
        """Return segments to their ranks' free queues, in input order.

        The first DSN that is not allocated (or is named a second time)
        raises, with the ones before it freed.
        """
        dsns = np.asarray(dsns, dtype=np.int64)
        if len(dsns) > 1:
            # A whole VM: each rank's share at once if every DSN checks out.
            rows = self._rows_of(dsns)
            if self._in_use[dsns].all() and all_distinct(dsns):
                self._in_use[dsns] = False
                self._append_shares(dsns, rows)
                return
        for dsn in dsns.tolist():
            self._release(dsn)

    def _release(self, dsn: int) -> None:
        """Move one allocated segment to its rank's free queue."""
        rank_id = self.rank_of_dsn(dsn)
        if not self._in_use.item(dsn):
            raise AllocationError(f"DSN {dsn:#x} is not allocated")
        self._in_use[dsn] = False
        row = self._row_of[rank_id]
        ring = self._ring[row]
        ring[(self._head[row] + self._free[row]) % len(ring)] = dsn
        self._free[row] += 1

    def move_allocation(self, old_dsn: int, new_dsn: int) -> None:
        """Transfer an allocation between segments after a migration copy.

        ``new_dsn`` must already be allocated (reserved by the migration
        engine); ``old_dsn`` is released.
        """
        self.rank_of_dsn(old_dsn)  # the source is range-checked first
        if not self.is_allocated(new_dsn):
            raise AllocationError(f"target DSN {new_dsn:#x} is not reserved")
        self._release(old_dsn)

    def move_allocations(self, old_dsns: list[int] | np.ndarray,
                         new_dsns: list[int] | np.ndarray) -> None:
        """:meth:`move_allocation` over paired lists, in order.

        Distinct allocated sources with reserved targets that are none
        of those sources — every migration drain — are released
        together.  Otherwise the first pair whose target is not reserved
        or whose source is not allocated raises, with the pairs before
        it already moved.
        """
        if len(old_dsns) != len(new_dsns):
            raise ValueError(
                f"{len(old_dsns)} sources paired with {len(new_dsns)} "
                "targets")
        old_dsns = np.asarray(old_dsns, dtype=np.int64)
        new_dsns = np.asarray(new_dsns, dtype=np.int64)
        if len(old_dsns) > 1:
            rows = self._rows_of(old_dsns)
            self.layout.unpack_dsn_batch(new_dsns)  # range check
            in_use = self._in_use
            if (in_use[new_dsns].all() and in_use[old_dsns].all()
                    and all_distinct(old_dsns)):
                in_use[old_dsns] = False
                if in_use[new_dsns].all():  # no target is a source
                    self._append_shares(old_dsns, rows)
                    return
                in_use[old_dsns] = True
        for old_dsn, new_dsn in zip(old_dsns.tolist(), new_dsns.tolist()):
            self.move_allocation(old_dsn, new_dsn)


__all__ = ["RankId", "RankRole", "RankUsage", "SegmentAllocator"]
