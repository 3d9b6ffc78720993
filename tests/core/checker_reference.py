"""The gathered cross-structure audits as per-entry loops: the oracle
the checks in :class:`repro.core.checker.ConsistencyChecker` are held
against (``tests/core/test_checker.py``).

Each walks one entry at a time — a ``try_walk`` and an ``hsn_of_dsn``
per live DSN, a ``try_walk`` per SMC entry, Python sets of every DSN,
one rank's books at a time, one tracked copy's fields at a time — and
appends its messages to the report exactly as the gathered checks must:
same text, same order.
"""

from __future__ import annotations

from repro.core.checker import AuditReport
from repro.core.controller import DtlController


def check_mapping_inverse(controller: DtlController,
                          report: AuditReport) -> None:
    tables = controller.tables
    for dsn in tables.live_dsns():
        hsn = tables.hsn_of_dsn(dsn)
        forward = tables.try_walk(hsn)
        report.checked_mappings += 1
        if forward != dsn:
            report.violations.append(
                f"reverse map says DSN {dsn:#x} -> HSN {hsn:#x}, but "
                f"forward walk gives {forward}")


def check_allocation_agreement(controller: DtlController,
                               report: AuditReport) -> None:
    tables = controller.tables
    allocator = controller.allocator
    mapped = set(tables.live_dsns())
    allocated = set()
    geometry = controller.geometry
    for channel in range(geometry.channels):
        for rank in range(geometry.ranks_per_channel):
            allocated.update(
                allocator.allocated_in_rank((channel, rank)).tolist())
    inflight_targets = set(
        controller.migration.tracked_copies()[2].tolist())
    for dsn in mapped - allocated:
        report.violations.append(
            f"DSN {dsn:#x} is mapped but not allocated")
    for dsn in (allocated - mapped) - inflight_targets:
        report.violations.append(
            f"DSN {dsn:#x} is allocated but not mapped")


def check_smc_coherence(controller: DtlController,
                        report: AuditReport) -> None:
    tables = controller.tables
    smc = controller.translation.smc
    entries = []
    for hsn, dsn in smc.l1.items():
        entries.append(("L1", hsn, dsn))
    for hsn, dsn in smc.l2.items():
        entries.append(("L2", hsn, dsn))
    for level, hsn, dsn in entries:
        report.checked_smc_entries += 1
        actual = tables.try_walk(hsn)
        if actual != dsn:
            report.violations.append(
                f"{level} SMC caches HSN {hsn:#x} -> DSN {dsn:#x}, "
                f"tables say {actual}")


def check_segment_conservation(controller: DtlController,
                               report: AuditReport) -> None:
    allocator = controller.allocator
    geometry = controller.geometry
    for channel in range(geometry.channels):
        for rank in range(geometry.ranks_per_channel):
            allocated = len(allocator.allocated_in_rank((channel, rank)))
            free = allocator.free_in_rank((channel, rank))
            if allocated + free != geometry.segments_per_rank:
                report.violations.append(
                    f"rank ({channel},{rank}): allocated {allocated}"
                    f" + free {free} != "
                    f"{geometry.segments_per_rank}")


def check_migration_tracking(controller: DtlController,
                             report: AuditReport) -> None:
    tables = controller.tables
    allocator = controller.allocator
    migration = controller.migration
    for request in migration.tracked_requests():
        tag = f"migration {request.old_dsn:#x}->{request.new_dsn:#x}"
        if tables.try_walk(request.hsn) != request.old_dsn:
            report.violations.append(
                f"{tag}: HSN {request.hsn:#x} no longer maps to the "
                "source DSN")
        if not allocator.is_allocated(request.new_dsn):
            report.violations.append(
                f"{tag}: destination is not reserved")
        if tables.is_dsn_live(request.new_dsn):
            report.violations.append(
                f"{tag}: destination is already mapped mid-flight")
        if (migration.channel_of(request.old_dsn)
                != migration.channel_of(request.new_dsn)):
            report.violations.append(f"{tag}: crosses channels")
        if not 0 <= request.lines_done <= request.lines_total:
            report.violations.append(
                f"{tag}: progress {request.lines_done} out of range "
                f"0..{request.lines_total}")
        if (request.completion
                and request.lines_done != request.lines_total):
            report.violations.append(
                f"{tag}: completion bit set at progress "
                f"{request.lines_done}/{request.lines_total}")


#: Check name -> oracle.
REFERENCE_CHECKS = {
    "check_mapping_inverse": check_mapping_inverse,
    "check_allocation_agreement": check_allocation_agreement,
    "check_segment_conservation": check_segment_conservation,
    "check_smc_coherence": check_smc_coherence,
    "check_migration_tracking": check_migration_tracking,
}
