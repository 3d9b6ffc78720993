"""Hotness-aware self-refresh (Section 3.4).

Per channel, the policy runs a small state machine:

``PROFILING`` — at entry, the rank with the fewest accesses in the last
0.5 ms window becomes the *victim rank*.  A **migration table** (one entry
per segment: access bit + planned rank/segment) simulates a remapping plan:
every access to a segment whose *planned* location is the victim rank
triggers a CLOCK-style table update that plans the hot segment out of the
victim rank and a cold one in, and resets the profiling timer.  The *target
segment pointer* (TSP) walks the current target rank like the CLOCK hand,
clearing access bits until it finds a cold entry; the walk is bounded (the
paper bounds it at 40 ns, shorter than one DRAM access) and on timeout the
TSP moves to the next target rank round-robin.

``MIGRATING`` — once the hypothetical victim rank has been quiet for the
profiling threshold (50 ms), the planned swaps are executed: data moves
through the migration engine, HPA-to-DPA mappings are updated, and SMC
entries invalidated.

``SELF_REFRESH`` — the victim rank sits in self-refresh until one of its
segments is accessed, which wakes it (exit penalty) and restarts profiling.

The migration table is held in NumPy arrays (one slot per device segment)
so the trace-driven simulator can apply whole access windows at once
(:meth:`HotnessSelfRefreshPolicy.on_batch`); the per-access path
(:meth:`~HotnessSelfRefreshPolicy.on_access`) applies exactly the same
updates one at a time.

Victim-block choice, cold-partner search order, and the demotion depth at
SR entry are delegated to a pluggable :class:`repro.policies.Policy`; the
default :class:`~repro.policies.PaperPolicy` (fewest-window-accesses
victim, round-robin CLOCK search, always SELF_REFRESH) reproduces the
published behaviour bit-for-bit.  Policies see the migration table only
through the bounded :class:`_TspSearch` surface — never the arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.addressing import StructureSize
from repro.core.allocator import RankRole, SegmentAllocator
from repro.core.config import DtlConfig
from repro.core.migration import MigrationEngine
from repro.core.tables import TranslationTables
from repro.core.translation import TranslationEngine
from repro.dram.device import DramDevice
from repro.dram.power import PowerState
from repro.dram.rank import Rank
from repro.policies import DemotionLevel, Policy, RankStats, make_policy
from repro.telemetry import EventKind, EventTrace, MetricsRegistry

#: Quiet time after a successful self-refresh entry before the channel
#: profiles for an *additional* victim rank, in profiling thresholds.
REVISIT_DELAY_THRESHOLDS = 20


class ChannelPhase(enum.Enum):
    """Self-refresh state machine phases (per channel)."""

    IDLE = "idle"
    PROFILING = "profiling"
    SELF_REFRESH = "self_refresh"


@dataclass
class SelfRefreshEvent:
    """Record of one channel-level event for analysis."""

    time_ns: int
    channel: int
    kind: str  # "enter_sr" | "exit_sr" | "victim_selected"
    victim_rank: int
    swaps: int = 0
    migrated_bytes: int = 0


@dataclass
class _ChannelState:
    phase: ChannelPhase = ChannelPhase.IDLE
    victim_rank: int = -1
    victim_ranks: tuple[int, ...] = ()
    quiet_since_ns: int = 0
    window_counts: dict[int, int] = field(default_factory=dict)
    last_window_counts: dict[int, int] = field(default_factory=dict)
    target_ranks: list[int] = field(default_factory=list)
    target_cursor: int = 0
    tsp: dict[int, int] = field(default_factory=dict)
    last_sr_entry_ns: int = 0


class _TspSearch:
    """The :class:`repro.policies.ColdSearch` surface over one channel's
    migration table.

    Every scan stays bounded by ``tsp_scan_limit`` and clears access bits
    in passing, whichever order the policy walks the target ranks in.
    """

    __slots__ = ("_host", "_channel", "_state")

    def __init__(self, host: "HotnessSelfRefreshPolicy", channel: int,
                 state: _ChannelState):
        self._host = host
        self._channel = channel
        self._state = state

    @property
    def target_ranks(self) -> list[int]:
        return list(self._state.target_ranks)

    def window_count(self, rank: int) -> int:
        return self._state.window_counts.get(rank, 0)

    def last_window_count(self, rank: int) -> int:
        return self._state.last_window_counts.get(rank, 0)

    def clock_scan(self) -> int | None:
        return self._host._tsp_find_cold(self._channel, self._state)

    def scan_rank(self, rank: int) -> int | None:
        return self._host._tsp_scan_rank(self._channel, self._state, rank)


class HotnessSelfRefreshPolicy:
    """Per-channel hotness-aware self-refresh controller.

    Reads ``window_ns``, ``profiling_threshold_ns``, ``tsp_scan_limit``,
    ``sr_victim_granularity``, ``sr_planning`` and (unless ``policy`` is
    given) ``policy`` from the controller's
    :class:`~repro.core.config.DtlConfig`.
    """

    def __init__(self, device: DramDevice, allocator: SegmentAllocator,
                 tables: TranslationTables,
                 translation: TranslationEngine,
                 migration: MigrationEngine,
                 config: DtlConfig | None = None, *,
                 policy: Policy | None = None,
                 registry: MetricsRegistry | None = None,
                 trace: EventTrace | None = None):
        if config is None:
            config = DtlConfig()
        self.device = device
        self.geometry = device.geometry
        self.allocator = allocator
        self.layout = allocator.layout
        self.tables = tables
        self.translation = translation
        self.migration = migration
        self.policy = (policy if policy is not None
                       else make_policy(config.policy))
        self.window_ns = config.window_ns
        self.profiling_threshold_ns = config.profiling_threshold_ns
        self.tsp_scan_limit = config.tsp_scan_limit
        self.revisit_delay_ns = (REVISIT_DELAY_THRESHOLDS
                                 * config.profiling_threshold_ns)
        if device.geometry.ranks_per_channel % config.sr_victim_granularity:
            raise ValueError(
                "sr_victim_granularity must divide ranks_per_channel")
        self.victim_granularity = config.sr_victim_granularity
        #: With planning disabled the migration table never swaps entries:
        #: a victim only reaches self-refresh if it is *naturally* quiet.
        #: Exists for the ablation that isolates the CLOCK planner's
        #: contribution.
        self.enable_planning = config.sr_planning
        total = self.geometry.total_segments
        # Migration table (Figure 8): one row per device segment.
        self.access_bits = np.zeros(total, dtype=bool)
        self.planned = np.arange(total, dtype=np.int64)
        #: Cap on scalar event replays per channel per batch before
        #: :meth:`on_access_batch` stops rescanning the tail and replays
        #: the remainder element-wise (pathological event density).
        self._batch_event_limit = 64
        self._channels = {channel: _ChannelState()
                          for channel in range(self.geometry.channels)}
        self.events: list[SelfRefreshEvent] = []
        registry = registry if registry is not None else MetricsRegistry()
        self._trace = trace
        self._sr_entries = registry.counter("sr.entries")
        self._sr_exits = registry.counter("sr.exits")
        self._victim_selections = registry.counter("sr.victim_selections")
        self._swaps_executed = registry.counter("sr.swaps")
        self._exit_penalty_ns = registry.counter("sr.exit_penalty_total_ns")
        self._migrated_bytes = registry.counter("sr.migrated_bytes")
        self._demotion_counters = {
            level: registry.counter(f"policy.demotion.{level.value}")
            for level in DemotionLevel}
        self._idle_gap_hist = registry.histogram("policy.rank_idle_gap_ns")
        # Armed fault injector (None = zero-overhead no-op hooks).
        self._faults = None

    def table5_rows(self) -> dict[str, StructureSize]:
        """Table 5's (hot/cold) migration table: per device segment an
        access bit and the planned rank and segment index.  The plan
        never leaves its channel, so an entry is as wide as a DSN with
        the access bit in place of a channel bit (18 bits at 384 GB)."""
        assert len(self.planned) == len(self.access_bits)
        return {"migration_table": StructureSize(len(self.planned),
                                                 self.layout.dsn_bits)}

    def arm_faults(self, injector) -> None:
        """Attach (or with ``None`` detach) a fault injector."""
        self._faults = injector

    @property
    def exit_penalty_total_ns(self) -> float:
        """Cumulative SR exit penalty (registry counter view)."""
        return self._exit_penalty_ns.value

    @property
    def migrated_bytes_total(self) -> int:
        """Bytes moved by executed swap plans (registry counter view)."""
        return self._migrated_bytes.value

    # -- address helpers ---------------------------------------------------------

    @cached_property
    def _scanned_dsns(self) -> dict[tuple[int, int], np.ndarray]:
        # A property, not an ``__init__`` field: a run state pickled
        # before this cache existed restores without it and refills it.
        return {}

    @cached_property
    def _channel_ranks(self) -> tuple[tuple[Rank, ...], ...]:
        """Each channel's :class:`Rank` objects in index order, for the
        loops that read every rank's state (a property for the same
        reason as ``_scanned_dsns``)."""
        return tuple(tuple(self.device.ranks_in_channel(channel))
                     for channel in range(self.geometry.channels))

    def _dsn(self, channel: int, rank: int, index: int) -> int:
        """DSN of ``index`` in a rank the CLOCK hand scans: the rank's
        ``rank_dsns`` array is built on its first scan, then indexed."""
        cache = self._scanned_dsns
        dsns = cache.get((channel, rank))
        if dsns is None:
            dsns = cache[channel, rank] = self.layout.rank_dsns(channel, rank)
        return int(dsns[index])

    def planned_rank(self, dsn: int) -> int:
        """Rank index the plan currently sends segment ``dsn`` to."""
        return self.layout.rank_of_dsn(int(self.planned[dsn]))

    def _swap_entries(self, dsn_a: int, dsn_b: int) -> None:
        self.planned[dsn_a], self.planned[dsn_b] = (self.planned[dsn_b],
                                                    self.planned[dsn_a])

    # -- phase control --------------------------------------------------------------

    def _rank_stats(self, channel: int, rank: int,
                    state: _ChannelState) -> RankStats:
        """Snapshot one rank (window counters included) for the policy."""
        return RankStats.snapshot(
            self.allocator.usage((channel, rank)),
            self.device.rank(channel, rank),
            window_count=state.window_counts.get(rank, 0),
            last_window_count=state.last_window_counts.get(rank, 0))

    def start_profiling(self, channel: int, now_ns: int) -> int | None:
        """Enter the profiling phase and pick a victim rank.

        The victim block is chosen by the policy (the paper's: fewest
        accesses in the last completed window).  Victims and targets are
        ``OPEN`` standby ranks.  Returns the victim rank index, or
        ``None`` when fewer than two blocks qualify (nothing to
        consolidate into).
        """
        state = self._channels[channel]
        role = self.allocator.role
        blocks = [block for block
                  in self.device.standby_blocks(channel,
                                                self.victim_granularity)
                  if all(role((channel, rank)) is RankRole.OPEN
                         for rank in block)]
        if len(blocks) < 2:
            state.phase = ChannelPhase.IDLE
            return None
        # Drop any plan left over from an interrupted profiling pass; the
        # migration table restarts from identity (Section 3.4: the table is
        # re-initialised around each migration).
        self._reset_channel_table(channel)
        stats = {rank: self._rank_stats(channel, rank, state)
                 for block in blocks for rank in block}
        victims = tuple(self.policy.sr_victim_block(channel, blocks, stats))
        if victims not in blocks:
            raise ValueError(
                f"policy {self.policy.name!r} returned victim block "
                f"{victims} not among candidates {blocks}")
        victim = victims[0]
        state.phase = ChannelPhase.PROFILING
        state.victim_rank = victim
        state.victim_ranks = victims
        state.quiet_since_ns = now_ns
        state.target_ranks = [rank for rank
                              in self.device.standby_ranks(channel)
                              if rank not in victims
                              and role((channel, rank)) is RankRole.OPEN]
        # The TSP is a CLOCK hand: it persists across profiling rounds so
        # repeated searches keep exploring the target ranks instead of
        # rescanning the same entries.
        state.target_cursor %= len(state.target_ranks)
        for rank in state.target_ranks:
            state.tsp.setdefault(rank, 0)
        self.events.append(SelfRefreshEvent(
            time_ns=now_ns, channel=channel, kind="victim_selected",
            victim_rank=victim))
        self._victim_selections.inc()
        return victim

    # -- access path -------------------------------------------------------------------

    def on_access(self, dsn: int, now_ns: int) -> float:
        """Record one post-cache access to segment ``dsn``.

        Returns the latency penalty (ns) if the access woke a rank out of
        self-refresh, else 0.0.
        """
        channel = self.layout.channel_of_dsn(dsn)
        rank = self.layout.rank_of_dsn(dsn)
        state = self._channels[channel]
        penalty = self._wake_if_needed(channel, rank, state, now_ns)
        self.device.rank(channel, rank).record_access()
        state.window_counts[rank] = state.window_counts.get(rank, 0) + 1
        self.access_bits[dsn] = True
        if state.phase is ChannelPhase.PROFILING:
            self._profiling_update(dsn, state, rank, now_ns)
        return penalty

    def on_segments_moved(self, old_dsns: np.ndarray,
                          new_dsns: np.ndarray) -> None:
        """CLOCK state follows the data when segments migrate.

        The access bit tracks the *segment's contents*, not the physical
        slot: leaving a hot bit on the vacated slot (and a cold bit on
        the destination) makes the TSP mis-classify both on the next
        scan.  The sources' bits are gathered, cleared, and scattered to
        the targets.  That equals moving one pair at a time in order
        because callers pass distinct sources and distinct targets, none
        of them a source: the controller calls this after every
        migration-engine completion, once ``remap_segments`` and
        ``move_allocations`` have refused anything else, and
        :meth:`_execute_swaps` for each one-way move of its own plan.
        """
        bits = self.access_bits
        moved = bits[old_dsns]
        bits[old_dsns] = False
        bits[new_dsns] = moved

    def on_access_batch(self, dsns: np.ndarray, channels: np.ndarray,
                        ranks: np.ndarray, now_ns: int) -> np.ndarray:
        """Scalar-identical batch variant of :meth:`on_access`.

        ``channels`` and ``ranks`` are the DSNs' decoded channel and
        rank, which the caller already holds.  Equivalent to calling
        :meth:`on_access` once per element of ``dsns`` in order (per
        channel — accesses to different channels touch disjoint state,
        so only intra-channel order matters); returns the per-access
        wake penalties (ns).  Unlike
        :meth:`on_batch` — which applies windowed distinct-segment
        semantics — every repeat here counts.

        Only two kinds of access can mutate policy state mid-batch:

        * an access to a rank in self-refresh (wake + re-profile) or in
          MPSM (the rank raises), and
        * while the channel is PROFILING, an access to a segment whose
          *planned* location is the victim rank (CLOCK table swap, quiet
          timer reset).

        Those *events* replay through :meth:`on_access` one at a time;
        every stretch between events is applied in bulk (per-rank
        counters via bincount, access bits with one scatter).  Each
        event can change what counts as an event — a wake flips the
        channel into PROFILING, a table swap re-plans up to three
        segments — so the tail is re-screened after every replay.
        Events self-extinguish (a hot segment is planned out of the
        victim rank by its own hit), so the scan count stays small; a
        channel that somehow exceeds ``_batch_event_limit`` events
        replays its remaining tail element-wise.

        Most calls hold no event at all, and a per-(channel, rank)
        histogram of the call proves it without touching an element: a
        channel with no victim block planned whose sleeping and MPSM
        ranks the call does not touch takes its counters straight from
        the histogram, and only the others are split out and scanned.

        The event screen is policy-independent: a policy only changes
        *which* segments are planned into the victim ranks, and the
        screen reads the live ``planned`` array, so scalar/batch
        identity holds for every policy (proven over all registered
        policies in ``tests/policies/test_paper_identity.py``).
        """
        dsns = np.asarray(dsns, dtype=np.int64)
        penalties = np.zeros(len(dsns), dtype=np.float64)
        if not len(dsns):
            return penalties
        if self._faults is not None and self._faults.counts_sr_exits:
            # An sr.exit spec counts wakes across channels, which makes
            # their global order observable; the per-channel loop below
            # only keeps intra-channel order, so it may wake ranks on
            # one channel at most.
            stop = self._single_wake_channel_prefix(channels, ranks)
            if stop < len(dsns):
                penalties[:stop] = self.on_access_batch(
                    dsns[:stop], channels[:stop], ranks[:stop], now_ns)
                penalties[stop:] = self.on_access_batch(
                    dsns[stop:], channels[stop:], ranks[stop:], now_ns)
                return penalties
        # One histogram over (channel, rank) keys is the bulk
        # bookkeeping of every channel the call holds no event for, and
        # finds those channels before any per-channel array exists: an
        # event needs a touched rank that is asleep or in MPSM, or an
        # access planned into the victim block of a profiling channel.
        num_ranks = self.geometry.ranks_per_channel
        keys = channels * num_ranks + ranks
        touches = np.bincount(
            keys, minlength=len(self._channels) * num_ranks).tolist()
        eventful: set[int] = set()
        victim_keys: list[int] = []
        for channel, state in self._channels.items():
            base = channel * num_ranks
            for rank in self._channel_ranks[channel]:
                if touches[base + rank.index] and (
                        rank.state is PowerState.SELF_REFRESH
                        or rank.state is PowerState.MPSM):
                    eventful.add(channel)
                    break
            else:
                if (state.phase is ChannelPhase.PROFILING
                        and any(touches[base:base + num_ranks])):
                    victim_keys.extend(base + rank
                                       for rank in state.victim_ranks)
        if victim_keys:
            # ``planned`` swaps entries within a channel, so the planned
            # rank is keyed with the access's own channel.
            planned_keys = (channels * num_ranks
                            + self.layout.rank_of_dsn(self.planned[dsns]))
            hits = self._member_mask(victim_keys)[planned_keys]
            eventful.update(channels[hits].tolist())
        for channel, state in self._channels.items():
            if channel not in eventful:
                base = channel * num_ranks
                self._count_accesses(channel, state,
                                     touches[base:base + num_ranks])
        if not eventful:
            self.access_bits[dsns] = True
            return penalties
        quiet = np.ones(len(dsns), dtype=bool)
        for channel in sorted(eventful):
            idx = np.flatnonzero(channels == channel)
            quiet[idx] = False
            self._run_channel_batch(channel, dsns[idx], ranks[idx], idx,
                                    penalties, now_ns)
        self.access_bits[dsns[quiet]] = True
        return penalties

    def _stateful_ranks(self, channel: int) -> list[int]:
        """Ranks of ``channel`` whose next access changes their state."""
        return [rank.index for rank in self._channel_ranks[channel]
                if rank.state is PowerState.SELF_REFRESH
                or rank.state is PowerState.MPSM]

    def _member_mask(self, members) -> np.ndarray:
        """Boolean mask with ``members`` set: ``mask[array]`` tests a
        whole array of ranks — or of ``channel * ranks_per_channel +
        rank`` keys — for membership in that small set."""
        mask = np.zeros(self.geometry.total_ranks, dtype=bool)
        mask[list(members)] = True
        return mask

    def _single_wake_channel_prefix(self, channels: np.ndarray,
                                    ranks: np.ndarray) -> int:
        """Length of the longest prefix that wakes ranks on one channel.

        Ranks only *leave* self-refresh during a batch, so the ranks
        asleep now bound every wake: the prefix ends before the first
        touch of a sleeping rank on a second channel.  It always holds
        the first wake, so re-screening the rest terminates.
        """
        sleeping = {channel: self.sr_ranks(channel)
                    for channel in self._channels}
        if sum(map(bool, sleeping.values())) < 2:
            return len(channels)
        touches = np.zeros(len(channels), dtype=bool)
        for channel, asleep in sleeping.items():
            if asleep:
                touches |= ((channels == channel)
                            & self._member_mask(asleep)[ranks])
        hits = np.flatnonzero(touches)
        if not len(hits):
            return len(channels)
        elsewhere = channels[hits] != channels[hits[0]]
        if not elsewhere.any():
            return len(channels)
        return int(hits[np.argmax(elsewhere)])

    def _bulk_apply(self, channel: int, state: _ChannelState,
                    run_dsns: np.ndarray, run_ranks: np.ndarray) -> None:
        """Apply an event-free stretch of accesses on one channel.

        Order-free bookkeeping only: per-rank access counters, window
        counts, and access bits.  ``access_bits`` is indexed by the
        *packed device-global DSN* — the same index space the scalar
        path (``on_access``), the CLOCK sweep (``_tsp_find_cold`` via
        ``pack_dsn``), and ``on_batch`` all use, so one bit per device
        segment, not per rank-local index.
        """
        self._count_accesses(channel, state,
                             np.bincount(run_ranks).tolist())
        self.access_bits[run_dsns] = True

    def _count_accesses(self, channel: int, state: _ChannelState,
                        counts: list[int]) -> None:
        """Add ``counts[rank]`` accesses to each rank's counters."""
        window = state.window_counts
        for rank, count in zip(self._channel_ranks[channel], counts):
            if count:
                rank.record_access(count)
                window[rank.index] = window.get(rank.index, 0) + count

    def _run_channel_batch(self, channel: int, ch_dsns: np.ndarray,
                           ch_ranks: np.ndarray, idx: np.ndarray,
                           penalties: np.ndarray, now_ns: int) -> None:
        """Event-loop application of one channel's slice of a batch."""
        state = self._channels[channel]
        n = len(ch_dsns)
        p = 0
        events = 0
        while p < n:
            stateful_ranks = self._stateful_ranks(channel)
            profiling = (state.phase is ChannelPhase.PROFILING
                         and bool(state.victim_ranks))
            if not stateful_ranks and not profiling:
                self._bulk_apply(channel, state, ch_dsns[p:], ch_ranks[p:])
                return
            tail_dsns = ch_dsns[p:]
            ev = self._member_mask(stateful_ranks)[ch_ranks[p:]]
            if profiling:
                planned_ranks = self.layout.rank_of_dsn(
                    self.planned[tail_dsns])
                ev |= self._member_mask(state.victim_ranks)[planned_ranks]
            if not ev.any():
                self._bulk_apply(channel, state, tail_dsns, ch_ranks[p:])
                return
            cut = int(np.argmax(ev))
            if cut:
                self._bulk_apply(channel, state, tail_dsns[:cut],
                                 ch_ranks[p:p + cut])
            pos = p + cut
            penalties[idx[pos]] = self.on_access(int(ch_dsns[pos]), now_ns)
            p = pos + 1
            events += 1
            if events >= self._batch_event_limit:
                for q in range(p, n):
                    penalties[idx[q]] = self.on_access(int(ch_dsns[q]),
                                                       now_ns)
                return

    def on_batch(self, dsns: np.ndarray, now_ns: int,
                 bit_dsns: np.ndarray | None = None) -> float:
        """Apply one access window's worth of *distinct touched segments*.

        Equivalent to calling :meth:`on_access` once per touched segment,
        but with the bulk bookkeeping (access bits, per-rank counters, SR
        wake detection) vectorised.  Returns total wake penalty (ns).

        Args:
            dsns: Segments touched during the batch interval (drive wakes,
                counters, and migration-table updates).
            bit_dsns: Segments whose access bit should be set.  When the
                batch interval is longer than the hardware's 0.5 ms access
                window, pass the sub-sample touched within one window here
                so the CLOCK's second-chance bits keep their hardware
                granularity; ``None`` sets bits for every touched segment.
        """
        if not len(dsns):
            return 0.0
        dsns = np.asarray(dsns, dtype=np.int64)
        if bit_dsns is None:
            self.access_bits[dsns] = True
        elif len(bit_dsns):
            self.access_bits[np.asarray(bit_dsns, dtype=np.int64)] = True
        channels = self.layout.channel_of_dsn(dsns)
        ranks = self.layout.rank_of_dsn(dsns)
        penalty = 0.0
        for channel in range(self.geometry.channels):
            mask = channels == channel
            if not mask.any():
                continue
            state = self._channels[channel]
            channel_dsns = dsns[mask]
            channel_ranks = ranks[mask]
            for rank in np.unique(channel_ranks):
                rank = int(rank)
                count = int((channel_ranks == rank).sum())
                penalty += self._wake_if_needed(channel, rank, state, now_ns)
                self.device.rank(channel, rank).record_access(count)
                state.window_counts[rank] = (state.window_counts.get(rank, 0)
                                             + count)
            if state.phase is not ChannelPhase.PROFILING:
                continue
            # Only touches whose *planned* location is the victim rank
            # update the migration table / reset the timer.
            planned_ranks = self.layout.rank_of_dsn(
                self.planned[channel_dsns])
            hits = self._member_mask(state.victim_ranks)[planned_ranks]
            for dsn, rank in zip(channel_dsns[hits].tolist(),
                                 channel_ranks[hits].tolist()):
                self._profiling_update(dsn, state, rank, now_ns)
        return penalty

    def _wake_if_needed(self, channel: int, rank: int, state: _ChannelState,
                        now_ns: int) -> float:
        rank_obj = self.device.rank(channel, rank)
        if rank_obj.state is not PowerState.SELF_REFRESH:
            return 0.0
        penalty, woken = self.device.wake_block(
            channel, rank, self.victim_granularity, now_ns)
        for member in woken:
            self.events.append(SelfRefreshEvent(
                time_ns=now_ns, channel=channel, kind="exit_sr",
                victim_rank=member))
            self._sr_exits.inc()
            if self._trace is not None:
                self._trace.record(EventKind.SR_EXIT, time=now_ns,
                                   channel=channel, rank=member)
            # One completed residency: how long the rank actually slept
            # before this access woke it (feeds adaptive demotion).
            if state.last_sr_entry_ns > 0:
                gap_ns = now_ns - state.last_sr_entry_ns
                self._idle_gap_hist.observe(gap_ns)
                self.policy.observe_idle_gap("sr", channel, member, gap_ns)
        # Injected delayed/failed self-refresh exit (hook: sr.exit).
        if self._faults is not None:
            penalty += self._faults.on_power_exit("sr", penalty)
        self._exit_penalty_ns.inc(penalty)
        # Re-profile: the freshly woken block has the fewest recent accesses
        # so it is re-selected as the victim, and the few segments that woke
        # it are planned out — the paper's cheap re-entry path.
        self.start_profiling(channel, now_ns)
        return penalty

    def _profiling_update(self, dsn: int, state: _ChannelState, rank: int,
                          now_ns: int) -> None:
        victims = state.victim_ranks
        if self.planned_rank(dsn) not in victims:
            return
        # Access hits the hypothetical victim rank: reset the quiet timer.
        state.quiet_since_ns = now_ns
        if not self.enable_planning:
            return
        channel = self.layout.channel_of_dsn(dsn)
        search = _TspSearch(self, channel, state)
        if rank in victims and int(self.planned[dsn]) == dsn:
            # Case (b): hot segment physically in the victim rank, not yet
            # planned out.  Ask the policy for a cold partner.
            partner = self.policy.sr_cold_partner(channel, search)
            if partner is not None:
                self._swap_entries(dsn, partner)
        elif rank not in victims:
            # Case (c): a target-rank segment planned *into* the victim
            # rank turned out hot.  Restore the swap, then find a genuinely
            # cold partner for the victim-rank entry it was paired with.
            partner_victim_dsn = int(self.planned[dsn])
            self._swap_entries(dsn, partner_victim_dsn)
            replacement = self.policy.sr_cold_partner(channel, search)
            if replacement is not None:
                self._swap_entries(partner_victim_dsn, replacement)

    def _tsp_find_cold(self, channel: int, state: _ChannelState) -> int | None:
        """The paper's TSP walk: :meth:`_tsp_scan_rank` on the current
        target rank, then on to the next one round-robin — after a find
        and after a timeout (the paper's 40 ns bound) alike.
        """
        if not state.target_ranks:
            return None
        dsn = self._tsp_scan_rank(
            channel, state, state.target_ranks[state.target_cursor])
        # "A target rank is chosen in a round-robin manner among the
        # other active ranks": rotate after every selection so cold
        # segments are collected from all target ranks, not just the
        # first one with a cold-looking entry.
        state.target_cursor = ((state.target_cursor + 1)
                               % len(state.target_ranks))
        return dsn

    def _tsp_scan_rank(self, channel: int, state: _ChannelState,
                       target: int) -> int | None:
        """Bounded CLOCK scan of one target rank for a cold entry that
        no planned swap involves yet.

        The rank's pointer persists across scans; access bits are
        cleared in passing (second chance); at most ``tsp_scan_limit``
        entries are examined.  The round-robin cursor is left alone:
        policies that order target ranks themselves (e.g. DReAM's
        coldest-first) scan through here via ``ColdSearch``.
        """
        if target not in state.target_ranks:
            return None
        segments = self.geometry.segments_per_rank
        pointer = state.tsp.setdefault(target, 0)
        for _ in range(self.tsp_scan_limit):
            index = pointer % segments
            pointer += 1
            dsn = self._dsn(channel, target, index)
            if int(self.planned[dsn]) != dsn:
                continue  # already involved in a planned swap
            if self.access_bits[dsn]:
                self.access_bits[dsn] = False  # second chance
                continue
            state.tsp[target] = pointer
            return dsn
        state.tsp[target] = pointer  # timeout: remember progress
        return None

    # -- windows and timers ----------------------------------------------------------

    def end_window(self) -> None:
        """Close the current access-count window on every channel."""
        for channel, state in self._channels.items():
            state.last_window_counts = state.window_counts
            state.window_counts = {}
            self.policy.observe_window(channel, state.last_window_counts)

    def tick(self, now_ns: int) -> list[SelfRefreshEvent]:
        """Advance timers; run migration + SR entry for quiet channels."""
        fired: list[SelfRefreshEvent] = []
        for channel, state in self._channels.items():
            if state.phase is ChannelPhase.IDLE:
                # Profiling needs two blocks of standby ranks.  With fewer
                # standby ranks than that, start_profiling can only fail,
                # and failing leaves nothing but the IDLE phase the
                # channel already has: count them, and skip it.
                standby = 0
                for rank in self._channel_ranks[channel]:
                    if rank.state is PowerState.STANDBY:
                        standby += 1
                if standby >= 2 * self.victim_granularity:
                    self.start_profiling(channel, now_ns)
                continue
            if state.phase is ChannelPhase.SELF_REFRESH:
                # The last victim has slept undisturbed for the revisit
                # delay: try to consolidate one more rank.
                if now_ns - state.last_sr_entry_ns >= self.revisit_delay_ns:
                    self.start_profiling(channel, now_ns)
                continue
            if state.phase is not ChannelPhase.PROFILING:
                continue
            if now_ns - state.quiet_since_ns >= self.profiling_threshold_ns:
                event = self._enter_self_refresh(channel, state, now_ns)
                if event is not None:
                    fired.append(event)
        return fired

    def quiet_floor_ns(self, now_ns: int) -> int:
        """The earliest any channel's quiet timer can read from now on.

        For a caller whose next access or tick comes at ``now_ns`` or
        later: a ``PROFILING`` channel's ``quiet_since_ns`` only moves
        later, and any other channel starts profiling (on a tick, or on
        the access that wakes it) no earlier than ``now_ns``.  So a
        :meth:`tick` at ``t`` cannot enter self-refresh — the one place
        this policy moves a mapping — while ``t`` minus this floor is
        below ``profiling_threshold_ns``.
        """
        return min(state.quiet_since_ns
                   if state.phase is ChannelPhase.PROFILING else now_ns
                   for state in self._channels.values())

    # -- migration phase --------------------------------------------------------------

    def _planned_swaps(self, channel: int,
                       state: _ChannelState) -> list[tuple[int, int]]:
        """(victim_dsn, partner_dsn) pairs whose plan differs from identity."""
        swaps = []
        for victim in state.victim_ranks:
            dsns = self.layout.rank_dsns(channel, victim)
            planned = self.planned[dsns]
            moved = planned != dsns
            swaps.extend(zip(dsns[moved].tolist(), planned[moved].tolist()))
        return swaps

    def _reset_channel_table(self, channel: int) -> None:
        """Re-initialise planned locations for one channel.

        Only the rank/segment (planned) fields are reset, as in the paper;
        access bits are CLOCK state and persist.
        """
        for rank in range(self.geometry.ranks_per_channel):
            dsns = self.layout.rank_dsns(channel, rank)
            self.planned[dsns] = dsns

    def _enter_self_refresh(self, channel: int, state: _ChannelState,
                            now_ns: int) -> SelfRefreshEvent | None:
        # The power-down policy (or rank retirement) may have fenced,
        # parked or retired a victim rank since profiling began; the plan
        # is stale — restart with the ranks still open.
        if any(self.allocator.role((channel, rank)) is not RankRole.OPEN
               for rank in state.victim_ranks):
            self.start_profiling(channel, now_ns)
            return None
        victim_stats = [self._rank_stats(channel, rank, state)
                        for rank in state.victim_ranks]
        level = self.policy.demotion_level("sr", victim_stats)
        self._demotion_counters[level].inc()
        if level is DemotionLevel.STAY_ACTIVE:
            # The policy predicts wake-thrash: skip this entry and re-arm
            # the quiet timer; the plan stays in place, so a genuinely
            # quiet block just re-fires one threshold later.
            state.quiet_since_ns = now_ns
            return None
        swaps = self._planned_swaps(channel, state)
        migrated_bytes = self._execute_swaps(swaps)
        self._reset_channel_table(channel)
        victim = state.victim_rank
        block = [(channel, rank) for rank in state.victim_ranks]
        # MPSM loses contents: only a block the swaps left *empty* takes
        # it (and closes).  Live data downgrades to self-refresh.
        if level is DemotionLevel.MPSM and not any(
                self.allocator.usage(member).allocated for member in block):
            self.allocator.park(self.device, block, PowerState.MPSM, now_ns)
        else:
            for member in block:
                self.device.set_rank_state(member, PowerState.SELF_REFRESH,
                                           now_ns)
        state.phase = ChannelPhase.SELF_REFRESH
        self._migrated_bytes.inc(migrated_bytes)
        self._sr_entries.inc(len(state.victim_ranks))
        self._swaps_executed.inc(len(swaps))
        event = SelfRefreshEvent(
            time_ns=now_ns, channel=channel, kind="enter_sr",
            victim_rank=victim, swaps=len(swaps),
            migrated_bytes=migrated_bytes)
        self.events.append(event)
        if self._trace is not None:
            self._trace.record(EventKind.SR_ENTER, time=now_ns,
                               channel=channel, rank=victim,
                               swaps=len(swaps),
                               migrated_bytes=migrated_bytes)
        state.last_sr_entry_ns = now_ns
        return event

    def _execute_swaps(self, swaps: list[tuple[int, int]]) -> int:
        """Perform the planned hot/cold exchanges with mapping updates.

        Swaps whose partner rank is no longer ``OPEN`` (fenced, parked or
        retired by power-down or retirement since the plan was made) are
        dropped — the table resets right after, so the skipped entries
        simply retry in the next profiling round.  Swaps touching an
        in-flight migration endpoint are dropped for the same reason: a
        tracked *source* must keep its mapping until the engine retires
        it, and a tracked *target* is reserved (allocated but unmapped),
        not free.
        """
        _, old_dsns, new_dsns = self.migration.tracked_copies()
        busy = set(old_dsns.tolist()) | set(new_dsns.tolist())
        migrated = 0
        for victim_dsn, partner_dsn in swaps:
            if victim_dsn in busy or partner_dsn in busy:
                continue
            partner_rank = (self.layout.channel_of_dsn(partner_dsn),
                            self.layout.rank_of_dsn(partner_dsn))
            if self.allocator.role(partner_rank) is not RankRole.OPEN:
                continue
            copies = self.translation.exchange_segments(
                self.allocator, victim_dsn, partner_dsn)
            # Access bits travel with the data.
            if len(copies) == 2:
                bits = self.access_bits
                bits[victim_dsn], bits[partner_dsn] = (
                    bool(bits[partner_dsn]), bool(bits[victim_dsn]))
            elif copies:
                self.on_segments_moved(*np.array(copies, dtype=np.int64).T)
            migrated += len(copies) * self.geometry.segment_bytes
        return migrated

    # -- introspection ------------------------------------------------------------------

    def phase(self, channel: int) -> ChannelPhase:
        """Current phase of ``channel``'s state machine."""
        return self._channels[channel].phase

    def victim_rank(self, channel: int) -> int:
        """Current (primary) victim rank of ``channel`` (-1 when none)."""
        return self._channels[channel].victim_rank

    def victim_ranks(self, channel: int) -> tuple[int, ...]:
        """Current victim rank block of ``channel`` (empty when none)."""
        return self._channels[channel].victim_ranks

    def sr_ranks(self, channel: int) -> list[int]:
        """Ranks of ``channel`` currently in self-refresh."""
        return [rank.index for rank in self._channel_ranks[channel]
                if rank.state is PowerState.SELF_REFRESH]

    def hypothetical_victim_size(self, channel: int) -> int:
        """Number of segments currently planned into the victim rank."""
        state = self._channels[channel]
        if not state.victim_ranks:
            return 0
        victim = self._member_mask(state.victim_ranks)
        count = 0
        for rank in range(self.geometry.ranks_per_channel):
            dsns = self.layout.rank_dsns(channel, rank)
            count += int(
                victim[self.layout.rank_of_dsn(self.planned[dsns])].sum())
        return count


__all__ = [
    "REVISIT_DELAY_THRESHOLDS",
    "ChannelPhase",
    "SelfRefreshEvent",
    "HotnessSelfRefreshPolicy",
]
