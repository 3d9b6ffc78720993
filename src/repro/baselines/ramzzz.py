"""RAMZzz-style baseline: epoch-based rank-aware power management.

RAMZzz (Wu et al., SC'12 — the paper's Related Work, Section 8) separates
hot and cold *ranks* by periodically migrating pages and demotes cold
ranks into self-refresh.  Two structural differences from the DTL matter:

1. **No allocation knowledge.** RAMZzz sits at the MC/OS level and sees
   only access counts; it cannot tell a *free* segment from a cold one,
   so it cannot deliberately collect the unallocated space that the DTL's
   planner converges on.
2. **Epoch demotion instead of a quiet-timer.** At each epoch end the
   coldest rank is demoted if its epoch access count is below a
   threshold — there is no "hypothetical victim" being watched for
   quiet, so residually-warm data causes wakeup ping-pong instead of
   being planned out before demotion.

The implementation reuses the same device/allocator/tables substrate
and serves the same windowed replay contract (``on_batch`` →
``end_window`` → ``tick``, an ``events`` log and the two cost counters)
as :class:`~repro.core.self_refresh.HotnessSelfRefreshPolicy`, so one
simulator loop drives either and the comparison is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocator import SegmentAllocator
from repro.core.self_refresh import SelfRefreshEvent
from repro.core.tables import TranslationTables
from repro.core.translation import TranslationEngine
from repro.dram.device import DramDevice
from repro.dram.power import PowerState
from repro.units import NS_PER_MS

#: Reorganisation epoch (RAMZzz uses tens of ms).
EPOCH_NS = 100 * NS_PER_MS
#: Hot-segment evictions per rank per epoch (RAMZzz bounds migration
#: overhead per epoch).
MIGRATIONS_PER_EPOCH = 16


@dataclass(frozen=True)
class RamzzzConfig:
    """RAMZzz policy knobs.

    Attributes:
        demote_threshold: Demote the coldest rank when its epoch access
            count is at or below this.
        victim_granularity: Ranks demoted together (CKE pair = 2).
    """

    demote_threshold: int = 1000
    victim_granularity: int = 2


class RamzzzPolicy:
    """Epoch-based hot/cold rank separation with demotion."""

    def __init__(self, device: DramDevice, allocator: SegmentAllocator,
                 tables: TranslationTables, translation: TranslationEngine,
                 config: RamzzzConfig | None = None):
        self.device = device
        self.geometry = device.geometry
        self.allocator = allocator
        self.layout = allocator.layout
        self.tables = tables
        self.translation = translation
        self.config = config or RamzzzConfig()
        total = self.geometry.total_segments
        self.segment_counts = np.zeros(total, dtype=np.int64)
        self.epoch_index = 0
        self.demotions = 0
        self.wakeups = 0
        #: One "enter_sr" per demoted block, one "exit_sr" per wakeup.
        self.events: list[SelfRefreshEvent] = []
        self.migrated_bytes_total = 0
        self.exit_penalty_total_ns = 0.0

    # -- access path -----------------------------------------------------------

    def on_batch(self, dsns: np.ndarray, now_ns: int,
                 bit_dsns: np.ndarray | None = None) -> float:
        """Record one window's distinct touched segments; wake SR ranks.

        ``bit_dsns`` (the sub-window access-bit sample) is ignored:
        RAMZzz counts accesses per epoch and keeps no CLOCK bits.
        """
        if not len(dsns):
            return 0.0
        dsns = np.asarray(dsns, dtype=np.int64)
        np.add.at(self.segment_counts, dsns, 1)
        penalty = 0.0
        ranks = np.unique(np.stack([self.layout.channel_of_dsn(dsns),
                                    self.layout.rank_of_dsn(dsns)], axis=1),
                          axis=0)
        for channel, rank in ranks:
            channel, rank = int(channel), int(rank)
            rank_obj = self.device.rank(channel, rank)
            if rank_obj.state is PowerState.SELF_REFRESH:
                penalty = max(penalty, self.device.wake_block(
                    channel, rank, self.config.victim_granularity,
                    now_ns)[0])
                self.wakeups += 1
                self.events.append(SelfRefreshEvent(
                    time_ns=now_ns, channel=channel, kind="exit_sr",
                    victim_rank=rank))
            rank_obj.record_access()
        self.exit_penalty_total_ns += penalty
        return penalty

    def end_window(self) -> None:
        """Windowed-contract hook; RAMZzz keeps no per-window state."""

    def tick(self, now_ns: int) -> None:
        """Windowed-contract timer: reorganise once ``now_ns`` reaches
        the end of the current epoch."""
        if now_ns // EPOCH_NS > self.epoch_index:
            self.end_epoch(now_ns)

    # -- epoch reorganisation -----------------------------------------------------

    def _rank_count(self, channel: int, rank: int) -> int:
        return int(self.segment_counts[
            self.layout.rank_dsns(channel, rank)].sum())

    def end_epoch(self, now_ns: int) -> int:
        """Reorganise and demote; returns ranks demoted this epoch."""
        self.epoch_index += 1
        demoted = 0
        for channel in range(self.geometry.channels):
            blocks = self.device.standby_blocks(
                channel, self.config.victim_granularity)
            if len(blocks) < 2:
                continue
            block_counts = {block: sum(self._rank_count(channel, rank)
                                       for rank in block)
                            for block in blocks}
            coldest = min(blocks, key=lambda block: block_counts[block])
            self._evict_hot_segments(channel, coldest, now_ns)
            if block_counts[coldest] <= self.config.demote_threshold:
                for rank in coldest:
                    self.device.set_rank_state((channel, rank),
                                               PowerState.SELF_REFRESH,
                                               now_ns)
                self.demotions += 1
                self.events.append(SelfRefreshEvent(
                    time_ns=now_ns, channel=channel, kind="enter_sr",
                    victim_rank=coldest[0]))
                demoted += len(coldest)
        self.segment_counts[:] = 0
        return demoted

    def _evict_hot_segments(self, channel: int, block: tuple[int, ...],
                            now_ns: int) -> None:
        """Swap the block's hottest segments with cold ones elsewhere.

        Without allocation knowledge, candidates are chosen purely by
        epoch access count — a free segment and a cold live segment are
        indistinguishable.
        """
        budget = MIGRATIONS_PER_EPOCH
        victim_dsns = np.concatenate([self.layout.rank_dsns(channel, rank)
                                      for rank in block])
        counts = self.segment_counts[victim_dsns]
        hot_order = np.argsort(counts)[::-1]
        hot = victim_dsns[hot_order][:budget]
        hot = hot[self.segment_counts[hot] > 0]
        if not len(hot):
            return
        # Cold destinations: least-touched segments in the other standby
        # ranks of the channel.
        others = [rank for rank in self.device.standby_ranks(channel)
                  if rank not in block]
        if not others:
            return
        other_dsns = np.concatenate([self.layout.rank_dsns(channel, rank)
                                     for rank in others])
        cold_order = np.argsort(self.segment_counts[other_dsns])
        cold = other_dsns[cold_order][:len(hot)]
        for hot_dsn, cold_dsn in zip(hot.tolist(), cold.tolist()):
            copies = self.translation.exchange_segments(
                self.allocator, hot_dsn, cold_dsn)
            # Keep the hotness bookkeeping consistent with the move.
            self.segment_counts[hot_dsn], self.segment_counts[cold_dsn] = (
                self.segment_counts[cold_dsn], self.segment_counts[hot_dsn])
            self.migrated_bytes_total += (len(copies)
                                          * self.geometry.segment_bytes)

    # -- introspection ---------------------------------------------------------------

    def sr_rank_count(self) -> int:
        """Ranks currently in self-refresh."""
        return sum(1 for rank in self.device.ranks.values()
                   if rank.state is PowerState.SELF_REFRESH)


__all__ = ["RamzzzConfig", "RamzzzPolicy"]
