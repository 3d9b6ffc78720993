"""Cross-structure invariant checker.

The DTL keeps the same facts in several places — the segment mapping
table, the reverse mapping table, the allocator's free/allocated queues,
the SMC, and the rank power states.  :class:`ConsistencyChecker` audits
that they agree:

1. forward/reverse mapping tables are exact inverses;
2. every mapped DSN is allocated and every allocated DSN is mapped;
3. allocated + free segments partition the device;
4. ranks in a state that loses data (MPSM) hold none;
5. rank roles agree with power states and the copies in flight;
6. every SMC entry agrees with the tables;
7. channel occupancy is balanced across channels (modulo retirement).

Tests call :func:`check` after every mutation sequence; long-running
simulations can enable periodic audits.  Violations raise
:class:`ConsistencyError` with a description of every failed invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.allocator import RankRole
from repro.core.controller import DtlController
from repro.core.tables import UNMAPPED
from repro.dram.power import PowerState
from repro.errors import ReproError


#: The power states a closed role may sit in (an ``OPEN`` rank: any).
_ROLE_STATES = {
    RankRole.FENCED: {PowerState.STANDBY},
    RankRole.PARKED: {PowerState.SELF_REFRESH, PowerState.MPSM},
    RankRole.RETIRED: {PowerState.MPSM},
}


class ConsistencyError(ReproError):
    """One or more DTL invariants are violated."""


@dataclass
class AuditReport:
    """Outcome of one consistency audit."""

    violations: list[str] = field(default_factory=list)
    checked_mappings: int = 0
    checked_smc_entries: int = 0

    @property
    def ok(self) -> bool:
        """True when no invariant failed."""
        return not self.violations


class ConsistencyChecker:
    """Audits a :class:`~repro.core.controller.DtlController`."""

    def __init__(self, controller: DtlController):
        self.controller = controller

    # -- individual invariants ---------------------------------------------------

    def check_mapping_inverse(self, report: AuditReport) -> None:
        """Forward and reverse tables must be exact inverses: every live
        DSN's HSN walks back to it."""
        tables = self.controller.tables
        dsns = np.flatnonzero(tables.mapped_mask())
        hsns = tables.hsns_of_dsns(dsns)
        forward = tables.try_walk_batch(hsns)
        report.checked_mappings += len(dsns)
        bad = np.flatnonzero(forward != dsns)
        for dsn, hsn, walked in zip(dsns[bad].tolist(), hsns[bad].tolist(),
                                    forward[bad].tolist()):
            report.violations.append(
                f"reverse map says DSN {dsn:#x} -> HSN {hsn:#x}, but "
                f"forward walk gives {_walked(walked)}")

    def check_allocation_agreement(self, report: AuditReport) -> None:
        """Mapped segments and allocated segments are the same set.

        Destinations of in-flight migrations are exempt from the
        "allocated implies mapped" direction: the engine reserves the
        target segment at submission but the mapping only moves at
        retirement (Section 4.2), so allocated-but-unmapped is the legal
        mid-flight state — :meth:`check_migration_tracking` audits it.
        """
        tables = self.controller.tables
        allocator = self.controller.allocator
        mapped = tables.mapped_mask()
        allocated = allocator.allocated_mask()
        targets = self.controller.migration.tracked_copies()[2]
        unmapped = allocated & ~mapped
        unmapped[targets] = False
        if not ((mapped & ~allocated).any() or unmapped.any()):
            return
        # A violation: list it in the order the set differences of the
        # rank-by-rank books iterate.
        mapped_set = set(tables.live_dsns())
        allocated_set = set()
        geometry = self.controller.geometry
        for channel in range(geometry.channels):
            for rank in range(geometry.ranks_per_channel):
                allocated_set.update(
                    allocator.allocated_in_rank((channel, rank)).tolist())
        for dsn in mapped_set - allocated_set:
            report.violations.append(
                f"DSN {dsn:#x} is mapped but not allocated")
        for dsn in (allocated_set - mapped_set) - set(targets.tolist()):
            report.violations.append(
                f"DSN {dsn:#x} is allocated but not mapped")

    def check_segment_conservation(self, report: AuditReport) -> None:
        """allocated + free == capacity, per rank: the segments flagged
        allocated and the ones waiting in the free queue, counted from
        the two structures."""
        allocator = self.controller.allocator
        geometry = self.controller.geometry
        capacity = geometry.segments_per_rank
        for row, allocated in enumerate(allocator.allocated_counts()):
            channel, rank = divmod(row, geometry.ranks_per_channel)
            free = allocator.free_in_rank((channel, rank))
            if allocated + free != capacity:
                report.violations.append(
                    f"rank ({channel},{rank}): allocated {allocated}"
                    f" + free {free} != {capacity}")

    def check_retention(self, report: AuditReport) -> None:
        """A rank in a state that loses data holds no allocated segment."""
        allocator = self.controller.allocator
        for rank_id, rank in self.controller.device.ranks.items():
            if not rank.state.retains_data():
                held = allocator.usage(rank_id).allocated
                if held:
                    report.violations.append(
                        f"rank {rank_id} is in {rank.state.name} but holds "
                        f"{held} live segments")

    def check_rank_roles(self, report: AuditReport) -> None:
        """Every rank's role agrees with its power state, and no copy in
        flight targets a rank that may not take data."""
        allocator = self.controller.allocator
        targets = self.controller.migration.tracked_copies()[2]
        for rank_id in sorted(set(allocator.ranks_of_dsns(targets))):
            role = allocator.role(rank_id)
            if role is not RankRole.OPEN:
                report.violations.append(
                    f"rank {rank_id} is {role.value} but a copy in flight "
                    "targets it")
        for rank_id, rank in self.controller.device.ranks.items():
            role = allocator.role(rank_id)
            if rank.state not in _ROLE_STATES.get(role, PowerState):
                report.violations.append(
                    f"rank {rank_id} is {role.value} but in "
                    f"{rank.state.name}")

    def check_smc_coherence(self, report: AuditReport) -> None:
        """Every cached translation must match the tables."""
        smc = self.controller.translation.smc
        l1_hsns, l1_dsns = smc.l1.columns()
        l2_hsns, l2_dsns = smc.l2.columns()
        hsns = np.concatenate((l1_hsns, l2_hsns))
        dsns = np.concatenate((l1_dsns, l2_dsns))
        report.checked_smc_entries += len(hsns)
        if not len(hsns):
            return
        actual = self.controller.tables.try_walk_batch(hsns)
        for index in np.flatnonzero((actual != dsns)
                                    | (actual == UNMAPPED)).tolist():
            level = "L1" if index < len(l1_hsns) else "L2"
            report.violations.append(
                f"{level} SMC caches HSN {hsns.item(index):#x} -> DSN "
                f"{dsns.item(index):#x}, tables say "
                f"{_walked(actual.item(index))}")

    def check_migration_tracking(self, report: AuditReport) -> None:
        """Every tracked migration references a consistent world.

        For each queued or in-flight request: the source is still the
        live mapping of its HSN, the reserved destination is allocated
        but not yet mapped, both live on one channel, and the progress
        counter is in range (with the completion bit only ever set at
        full progress) — the state an abort/retry must restore exactly.
        """
        controller = self.controller
        migration = controller.migration
        if not migration.pending_count():
            return
        hsns, old_dsns, new_dsns = migration.tracked_copies()
        lines_done, completion = migration.tracked_progress()
        total = migration.lines_per_segment
        checks = np.stack((
            controller.tables.try_walk_batch(hsns) != old_dsns,
            ~controller.allocator.allocated_mask()[new_dsns],
            controller.tables.mapped_mask()[new_dsns],
            migration.channel_of(old_dsns) != migration.channel_of(new_dsns),
            (lines_done < 0) | (lines_done > total),
            (completion != 0) & (lines_done != total)))
        for index in np.flatnonzero(checks.any(axis=0)).tolist():
            hsn, old_dsn, new_dsn, done = (
                hsns.item(index), old_dsns.item(index),
                new_dsns.item(index), lines_done.item(index))
            tag = f"migration {old_dsn:#x}->{new_dsn:#x}"
            messages = (
                f"{tag}: HSN {hsn:#x} no longer maps to the source DSN",
                f"{tag}: destination is not reserved",
                f"{tag}: destination is already mapped mid-flight",
                f"{tag}: crosses channels",
                f"{tag}: progress {done} out of range 0..{total}",
                f"{tag}: completion bit set at progress {done}/{total}")
            report.violations.extend(
                message for message, failed
                in zip(messages, checks[:, index].tolist()) if failed)

    def check_channel_balance(self, report: AuditReport,
                              tolerance: int = 0) -> None:
        """Per-channel occupancy stays balanced (Section 4.3)."""
        allocator = self.controller.allocator
        geometry = self.controller.geometry
        counts = [allocator.channel_allocated(channel)
                  for channel in range(geometry.channels)]
        if max(counts) - min(counts) > tolerance:
            report.violations.append(
                f"channel occupancy unbalanced: {counts}")

    # -- entry points ----------------------------------------------------------------

    def audit(self, balance_tolerance: int = 0) -> AuditReport:
        """Run every invariant; returns the report."""
        report = AuditReport()
        self.check_mapping_inverse(report)
        self.check_allocation_agreement(report)
        self.check_segment_conservation(report)
        self.check_retention(report)
        self.check_rank_roles(report)
        self.check_smc_coherence(report)
        self.check_migration_tracking(report)
        self.check_channel_balance(report, balance_tolerance)
        return report

    def assert_consistent(self, balance_tolerance: int = 0) -> AuditReport:
        """Audit and raise :class:`ConsistencyError` on any violation."""
        report = self.audit(balance_tolerance)
        if not report.ok:
            summary = "\n  ".join(report.violations[:10])
            raise ConsistencyError(
                f"{len(report.violations)} invariant violation(s):\n"
                f"  {summary}")
        return report


def _walked(dsn: int) -> int | None:
    """A batch walk's DSN as the scalar ``try_walk`` gives it."""
    return None if dsn == UNMAPPED else dsn


def check(controller: DtlController, balance_tolerance: int = 0) -> AuditReport:
    """Convenience one-shot audit."""
    return ConsistencyChecker(controller).assert_consistent(
        balance_tolerance)


__all__ = ["ConsistencyError", "AuditReport", "ConsistencyChecker", "check"]
