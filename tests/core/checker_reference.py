"""The three cross-structure audits as per-entry loops: the oracle the
gathered checks in :class:`repro.core.checker.ConsistencyChecker` are
held against (``tests/core/test_checker.py``).

Each walks one entry at a time — a ``try_walk`` and an ``hsn_of_dsn``
per live DSN, a ``try_walk`` per SMC entry, Python sets of every DSN —
and appends its messages to the report exactly as the gathered checks
must: same text, same order.
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


#: Check name -> oracle.
REFERENCE_CHECKS = {
    "check_mapping_inverse": check_mapping_inverse,
    "check_allocation_agreement": check_allocation_agreement,
    "check_smc_coherence": check_smc_coherence,
}
