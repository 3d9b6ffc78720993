"""Rank-level power-down policy (Section 3.3).

At every VM deallocation the DTL checks whether the unallocated capacity
among the *active* ranks exceeds the size of one rank-group (one rank per
channel, same index — or a CKE pair of them on hardware where two ranks
share a clock-enable pin, Section 5.1).  If so, the live segments of the
victim group are consolidated into the other active ranks and the victim
group enters a parked power state (MPSM in the paper).

When a later allocation does not fit into the active ranks, the policy
reactivates powered-down groups (``MPSM_exit``).  The exit penalty overlaps
with the new VM's initialisation, so running VMs never observe it
(paper, Section 3.3 walk-through).

Because hotness-aware self-refresh migrates at segment granularity, rank
utilisation inside a group can drift apart across channels; the policy then
forms a *virtual rank-group* from one rank per channel (Section 4.3).

*Which* ranks become victims, *where* their data goes, and *how deep* the
group parks are delegated to a pluggable :class:`repro.policies.Policy`;
the default :class:`~repro.policies.PaperPolicy` reproduces the published
behaviour bit-for-bit (least-allocated victims, most-utilised targets,
static MPSM).  This class owns everything policies must not touch:
capacity invariants, migration submission, fencing, device transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocator import RankId, RankRole, SegmentAllocator
from repro.core.config import DtlConfig
from repro.core.migration import MigrationEngine
from repro.core.tables import TranslationTables
from repro.dram.device import DramDevice
from repro.dram.power import PowerState
from repro.errors import AllocationError
from repro.policies import DemotionLevel, Policy, RankStats, make_policy
from repro.telemetry import EventTrace, MetricsRegistry

#: Roles a reactivation may reopen (a fenced rank is still in standby).
_RECLAIMABLE = (RankRole.FENCED, RankRole.PARKED)


@dataclass
class PowerTransition:
    """Record of one rank-group power transition."""

    time_ns: int
    rank_ids: tuple[RankId, ...]
    new_state: PowerState
    migrated_segments: int
    migrated_bytes: int
    exit_penalty_ns: float


@dataclass
class PendingPowerDown:
    """A consolidation whose victims park once its copies drain.

    The victim ranks are already ``FENCED`` (no new data); in the
    background mode the park waits for the migration engine to drain
    (the paper copies "in background by utilizing unused DRAM
    bandwidth").
    """

    victims: tuple[RankId, ...]
    migrated_segments: int
    migrated_bytes: int
    park_state: PowerState = PowerState.MPSM


class RankPowerDownPolicy:
    """Consolidate-and-power-down controller for rank groups.

    Reads ``group_granularity``, ``min_active_groups``,
    ``background_migration`` and (unless ``policy`` is given) ``policy``
    from the controller's :class:`~repro.core.config.DtlConfig`.
    """

    def __init__(self, device: DramDevice, allocator: SegmentAllocator,
                 tables: TranslationTables, migration: MigrationEngine,
                 config: DtlConfig | None = None, *,
                 policy: Policy | None = None,
                 registry: MetricsRegistry | None = None,
                 trace: EventTrace | None = None):
        if config is None:
            config = DtlConfig()
        geometry = device.geometry
        if geometry.ranks_per_channel % config.group_granularity:
            raise ValueError("group_granularity must divide ranks_per_channel")
        if config.min_active_groups < 1:
            raise ValueError("at least one rank-group must stay active")
        self.device = device
        self.geometry = geometry
        self.allocator = allocator
        self.tables = tables
        self.migration = migration
        self.policy = (policy if policy is not None
                       else make_policy(config.policy))
        self.group_granularity = config.group_granularity
        self.min_active_groups = config.min_active_groups
        #: When True, consolidation copies proceed only as idle bandwidth
        #: is granted via :meth:`pump`, and the park waits for them.
        self.background_migration = config.background_migration
        self._pending: list[PendingPowerDown] = []
        self.transitions: list[PowerTransition] = []
        # Park timestamps feeding the policy's idle-gap observations.
        self._parked_at: dict[RankId, tuple[int, PowerState]] = {}
        registry = registry if registry is not None else MetricsRegistry()
        self._trace = trace
        self._mpsm_entries = registry.counter("power.mpsm_entries")
        self._sr_parks = registry.counter("power.sr_parks")
        self._reactivations = registry.counter("power.reactivations")
        self._consolidated_segments = registry.counter(
            "power.consolidated_segments")
        self._consolidated_bytes = registry.counter(
            "power.consolidated_bytes")
        self._demotion_counters = {
            level: registry.counter(f"policy.demotion.{level.value}")
            for level in DemotionLevel}
        self._idle_gap_hist = registry.histogram("policy.rank_idle_gap_ns")
        # Armed fault injector (None = zero-overhead no-op hooks).
        self._faults = None

    def arm_faults(self, injector) -> None:
        """Attach (or with ``None`` detach) a fault injector."""
        self._faults = injector

    # -- queries --------------------------------------------------------------

    def _ranks(self, channel: int, *roles: RankRole) -> list[int]:
        """Ranks of ``channel`` whose role is one of ``roles``, in order."""
        role = self.allocator.role
        return [rank for rank in range(self.geometry.ranks_per_channel)
                if role((channel, rank)) in roles]

    def active_ranks_per_channel(self) -> int:
        """Minimum ``OPEN`` ranks over all channels.

        Channels stay balanced under normal operation; rank retirement can
        leave one channel a rank short, in which case the minimum governs
        both victim selection and capacity planning.
        """
        return min(len(self._ranks(channel, RankRole.OPEN))
                   for channel in range(self.geometry.channels))

    def _rank_stats(self, channel: int, rank: int) -> RankStats:
        """Snapshot one rank for a policy decision."""
        return RankStats.snapshot(self.allocator.usage((channel, rank)),
                                  self.device.rank(channel, rank))

    # -- victim selection -------------------------------------------------------

    def _migration_busy_ranks(self) -> set[RankId]:
        """Ranks touched by an in-flight migration (source or target).

        Such a rank cannot be a consolidation victim: its in-flight
        *target* segments are allocated but not yet mapped (nothing to
        evacuate, data still arriving) and its *source* segments are
        already being migrated (a second submit would conflict).
        """
        _, old_dsns, new_dsns = self.migration.tracked_copies()
        return (set(self.allocator.ranks_of_dsns(old_dsns))
                | set(self.allocator.ranks_of_dsns(new_dsns)))

    def _victim_group(self) -> list[RankId] | None:
        """Ask the policy for a virtual victim rank-group.

        Returns ``group_granularity`` ranks per channel — chosen by the
        policy from each channel's open, standby, migration-free ranks — or
        ``None`` if too few groups would remain active (or the policy
        declines).
        """
        active_groups = self.active_ranks_per_channel() // self.group_granularity
        if active_groups - 1 < self.min_active_groups:
            return None
        busy = self._migration_busy_ranks()
        victims: list[RankId] = []
        for channel in range(self.geometry.channels):
            # Only standby ranks qualify: a self-refreshed rank holds cold
            # data and would need waking + evacuation first.  Ranks with
            # in-flight migrations are skipped until those drain.
            candidates = [self._rank_stats(channel, rank)
                          for rank in self._ranks(channel, RankRole.OPEN)
                          if self.device.rank(channel, rank).state
                          is PowerState.STANDBY
                          and (channel, rank) not in busy]
            if len(candidates) < self.group_granularity:
                return None
            chosen = self.policy.powerdown_victims(
                channel, candidates, self.group_granularity)
            if chosen is None:
                return None
            valid = {stats.rank for stats in candidates}
            if len(chosen) != self.group_granularity \
                    or not set(chosen) <= valid:
                raise ValueError(
                    f"policy {self.policy.name!r} returned invalid victims "
                    f"{chosen} for channel {channel}")
            victims.extend((channel, rank) for rank in chosen)
        return victims

    # -- power-down ---------------------------------------------------------------

    def maybe_power_down(self, now_ns: int) -> list[PowerTransition]:
        """Power down as many victim groups as the free capacity allows.

        Called after every VM deallocation (and opportunistically by the
        simulator at interval boundaries).
        """
        performed: list[PowerTransition] = []
        while True:
            transition = self._try_power_down_once(now_ns)
            if transition is None:
                return performed
            performed.append(transition)

    def _try_power_down_once(self, now_ns: int) -> PowerTransition | None:
        victims = self._victim_group()
        if victims is None:
            return None
        group_segments = (self.geometry.rank_group_segments
                          * self.group_granularity)
        if self.allocator.free_count() < group_segments:
            return None
        live = {rank_id: self.allocator.allocated_in_rank(rank_id)
                for rank_id in victims}
        victim_set = set(victims)
        remaining_active = self.allocator.open_ranks() - victim_set
        total_live = sum(len(dsns) for dsns in live.values())
        # The remaining active ranks must absorb every live segment, channel
        # by channel (migration never crosses channels).
        for channel in range(self.geometry.channels):
            need = sum(len(dsns) for rank_id, dsns in live.items()
                       if rank_id[0] == channel)
            have = sum(self.allocator.free_in_rank(rank_id)
                       for rank_id in remaining_active if rank_id[0] == channel)
            if have < need:
                return None
        # How deep to park — decided *before* any data moves, so a
        # STAY_ACTIVE answer costs nothing.
        level = self.policy.demotion_level(
            "powerdown", [self._rank_stats(*rank_id) for rank_id in victims])
        self._demotion_counters[level].inc()
        park_state = level.park_state()
        if park_state is None:
            return None
        migrated_bytes = self._consolidate(live, remaining_active, now_ns)
        # Victims are fenced (no new data) but stay in standby until
        # their evacuation copies finish, in the background or already.
        self.allocator.set_role(victims, RankRole.FENCED)
        pending = PendingPowerDown(
            victims=tuple(victims), migrated_segments=total_live,
            migrated_bytes=migrated_bytes, park_state=park_state)
        if not (self.background_migration and self.migration.pending_count()):
            return self._finish_pending(pending, now_ns)
        self._pending.append(pending)
        return PowerTransition(
            time_ns=now_ns, rank_ids=tuple(victims),
            new_state=PowerState.STANDBY,  # not yet parked
            migrated_segments=total_live,
            migrated_bytes=migrated_bytes, exit_penalty_ns=0.0)

    def _consolidate(self, live: dict[RankId, np.ndarray],
                     remaining_active: set[RankId], now_ns: int) -> int:
        """Copy every live segment off the victim ranks.

        Targets are scored by the policy (the paper's: most-utilised
        first) restricted to the surviving active ranks of the same
        channel.
        """
        migrated_segments = 0
        for rank_id, dsns in live.items():
            channel = rank_id[0]
            self.evacuate(dsns, {other for other in remaining_active
                                 if other[0] == channel}, now_ns)
            migrated_segments += len(dsns)
        migrated_bytes = migrated_segments * self.geometry.segment_bytes
        self._consolidated_segments.inc(migrated_segments)
        self._consolidated_bytes.inc(migrated_bytes)
        if not self.background_migration:
            self.migration.drain()
        return migrated_bytes

    def evacuate(self, dsns: list[int] | np.ndarray, targets: set[RankId],
                 now_ns: int) -> None:
        """Queue a copy of every segment in ``dsns`` into ``targets``.

        Targets are reserved in runs: the policy picks a rank
        (:meth:`Policy.consolidation_target`), the run fills it as far
        as the remaining segments reach, and the policy is asked again
        only once that rank is full.  Each run is submitted as soon as
        it is reserved, so a refusal part-way leaves nothing reserved
        that the migration engine is not tracking.  All ``dsns`` and
        ``targets`` must live on one channel.

        Raises:
            AllocationError: when the policy finds no acceptable target
                with free capacity.
        """
        start = 0
        while start < len(dsns):
            candidates = [self._rank_stats(*rank_id) for rank_id in targets
                          if self.allocator.free_in_rank(rank_id)]
            chosen = (self.policy.consolidation_target(candidates)
                      if candidates else None)
            if chosen is None:
                raise AllocationError(
                    "no free target segments on channel "
                    f"{self.migration.channel_of(dsns[start])}")
            best = chosen.rank_id
            # Writing into a self-refreshed rank wakes it (the DRAM cannot
            # accept commands in SR).
            if self.device.ranks[best].state is PowerState.SELF_REFRESH:
                self.device.set_rank_state(best, PowerState.STANDBY, now_ns)
            run = dsns[start:start + self.allocator.free_in_rank(best)]
            self.migration.submit_batch(
                self.tables.hsns_of_dsns(run), run,
                self.allocator.allocate_in_rank(best, len(run)))
            start += len(run)

    # -- reactivation ------------------------------------------------------------------

    def ensure_capacity(self, num_segments: int,
                        now_ns: int) -> list[PowerTransition]:
        """Reactivate rank-groups until ``num_segments`` fit in active ranks.

        Raises:
            AllocationError: when even the fully powered-on device cannot
                hold the allocation.
        """
        performed: list[PowerTransition] = []
        while self.allocator.free_count() < num_segments:
            transition = self._reactivate_group(now_ns)
            if transition is None:
                raise AllocationError(
                    f"device cannot hold {num_segments} more segments")
            performed.append(transition)
        return performed

    # -- background migration -------------------------------------------------------

    def pump(self, now_ns: int, lines: int = 1,
             busy_channels: set[int] | None = None) -> int:
        """Grant idle bandwidth to in-flight consolidations.

        Copies up to ``lines`` cachelines per non-busy channel, then
        finishes any pending power-down whose copies have drained.

        Returns:
            Cachelines copied this call.
        """
        copied = self.migration.step_all(busy_channels, lines)
        self.park_if_quiet(now_ns)
        return copied

    def park_if_quiet(self, now_ns: int) -> None:
        """Finish every pending power-down at ``now_ns`` once no copy is
        queued or in flight (a drain that pumps many rounds at once
        parks at its last round's time)."""
        if self._pending and self.migration.pending_count() == 0:
            for pending in self._pending:
                self._finish_pending(pending, now_ns)
            self._pending.clear()

    def _finish_pending(self, pending: PendingPowerDown,
                        now_ns: int) -> PowerTransition:
        """Park every victim still ``FENCED`` (a reactivation may have
        reopened one).  Nothing lands on a fenced rank, so none holds
        data; were one to, the park raises — the consolidation is neither
        re-evacuated nor cancelled."""
        fenced = [rank_id for rank_id in pending.victims
                  if self.allocator.role(rank_id) is RankRole.FENCED]
        penalty = self.allocator.park(self.device, fenced,
                                      pending.park_state, now_ns)
        for rank_id in fenced:
            self._parked_at[rank_id] = (now_ns, pending.park_state)
        transition = PowerTransition(
            time_ns=now_ns, rank_ids=pending.victims,
            new_state=pending.park_state,
            migrated_segments=pending.migrated_segments,
            migrated_bytes=pending.migrated_bytes, exit_penalty_ns=penalty)
        self.transitions.append(transition)
        if pending.park_state is PowerState.MPSM:
            self._mpsm_entries.inc(len(fenced))
        else:
            self._sr_parks.inc(len(fenced))
        return transition

    def pending_power_downs(self) -> list[PendingPowerDown]:
        """Consolidations still copying in the background."""
        return list(self._pending)

    # -- rank retirement support --------------------------------------------------

    def ensure_capacity_on_channel(self, channel: int, num_segments: int,
                                   exclude: RankId,
                                   now_ns: int = 0) -> None:
        """Wake ranks on one channel until ``num_segments`` fit in its
        open ranks other than ``exclude``.

        Used by rank retirement to make room for an evacuation without
        disturbing the other channels' balance more than necessary.

        Raises:
            AllocationError: when the channel cannot absorb the segments.
        """
        def free_on_channel() -> int:
            return sum(self.allocator.free_in_rank((channel, rank))
                       for rank in self._ranks(channel, RankRole.OPEN)
                       if (channel, rank) != exclude)

        while free_on_channel() < num_segments:
            idle = [rank for rank in self._ranks(channel, *_RECLAIMABLE)
                    if (channel, rank) != exclude]
            if not idle:
                raise AllocationError(
                    f"channel {channel} cannot absorb {num_segments} "
                    "evacuated segments")
            rank_id = (channel, idle[0])
            self.device.set_rank_state(rank_id, PowerState.STANDBY, now_ns)
            self.allocator.set_role([rank_id], RankRole.OPEN)
            self._observe_wake(rank_id, now_ns)

    def _observe_wake(self, rank_id: RankId, now_ns: int) -> None:
        """Feed one completed park into the policy's idle histograms."""
        parked = self._parked_at.pop(rank_id, None)
        if parked is None:
            return
        gap_ns = now_ns - parked[0]
        self._idle_gap_hist.observe(gap_ns)
        self.policy.observe_idle_gap("powerdown", rank_id[0], rank_id[1],
                                     gap_ns)

    def _reactivate_group(self, now_ns: int) -> PowerTransition | None:
        """Wake the next powered-down rank(s), one group step at a time."""
        woken: list[RankId] = []
        for channel in range(self.geometry.channels):
            idle = self._ranks(channel, *_RECLAIMABLE)
            woken.extend((channel, rank)
                         for rank in idle[:self.group_granularity])
        if not woken:
            return None
        # The fault hook kind reflects the state actually being exited;
        # PaperPolicy always parks in MPSM.
        exited_sr = any(
            self.device.ranks[rank_id].state is PowerState.SELF_REFRESH
            for rank_id in woken)
        penalty = 0.0
        for rank_id in woken:
            penalty = max(penalty, self.device.set_rank_state(
                rank_id, PowerState.STANDBY, now_ns))
            self._observe_wake(rank_id, now_ns)
        self.allocator.set_role(woken, RankRole.OPEN)
        # Injected delayed/failed park exit (hook: power.mpsm_exit).
        if self._faults is not None:
            penalty += self._faults.on_power_exit(
                "sr" if exited_sr else "mpsm", penalty)
        transition = PowerTransition(
            time_ns=now_ns, rank_ids=tuple(woken),
            new_state=PowerState.STANDBY, migrated_segments=0,
            migrated_bytes=0, exit_penalty_ns=penalty)
        self.transitions.append(transition)
        self._reactivations.inc(len(woken))
        return transition


__all__ = ["PowerTransition", "PendingPowerDown", "RankPowerDownPolicy"]
