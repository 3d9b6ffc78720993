"""Named fault-injection hook points and their registry.

Every place the datapath consults the :class:`~repro.faults.injector.
FaultInjector` is a *hook point* with a stable name.  The catalog below
is the single source of truth: the lint guard in
``tests/faults/test_hook_registry.py`` fails the build when a hook point
exists without a catalog entry, or a catalog entry points at a module
that no longer calls its injector method.  Adding a hook therefore means
adding it in three places — the enum, the catalog, and the datapath —
and the guard keeps the three in sync.

Hook calls are guarded by ``if self._faults is not None:`` at every
site, so an unarmed datapath pays one attribute load and a branch.  The
three access-path hooks also have a *batch* injector method (one call
per vector pass of ``access_batch``, same guard, same counters as the
per-access method called once per element).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class HookPoint(enum.Enum):
    """Every named place the datapath can consult the fault injector."""

    #: One CXL.mem transaction (scalar access path); link errors and
    #: stalls add retry/backoff latency here.
    CXL_ACCESS = "cxl.access"
    #: One SMC lookup; corruption faults drop the cached entry (parity
    #: detection) and force a table re-walk on the next access.
    SMC_LOOKUP = "smc.lookup"
    #: One DRAM access with the target rank resolved; ECC single/multi
    #: bit errors are accounted against that rank.
    DRAM_ACCESS = "dram.access"
    #: One migration-engine copy step on an in-flight request whose
    #: completion bit is clear; abort faults fire by progress counter.
    MIGRATION_COPY = "migration.copy"
    #: One rank-group MPSM exit (reactivation); delayed/failed exits
    #: inflate the wake penalty.
    MPSM_EXIT = "power.mpsm_exit"
    #: One self-refresh exit (victim block wake); delayed/failed exits
    #: inflate the per-access wake penalty.
    SR_EXIT = "sr.exit"


@dataclass(frozen=True)
class HookInfo:
    """Catalog entry for one hook point.

    Attributes:
        point: The hook point this entry describes.
        method: The :class:`~repro.faults.injector.FaultInjector` method
            the datapath calls at this point.
        module: Repository-relative path of the module that calls it
            (the lint guard greps this file for ``method``).
        description: One line for ``docs/FAULTS.md``.
        batch_method: The injector method ``module`` calls once per
            vector pass instead of ``method`` once per access (access
            path hooks only; ``None`` elsewhere).
    """

    point: HookPoint
    method: str
    module: str
    description: str
    batch_method: str | None = None


#: Hook point -> where and how it is wired.  Keep in sync with the
#: datapath; the lint guard enforces exact coverage of :class:`HookPoint`.
HOOK_CATALOG: dict[HookPoint, HookInfo] = {
    HookPoint.CXL_ACCESS: HookInfo(
        HookPoint.CXL_ACCESS, "on_cxl_access",
        "src/repro/core/controller.py",
        "per-access CXL link error/stall with bounded retry + backoff",
        batch_method="on_cxl_access_batch"),
    HookPoint.SMC_LOOKUP: HookInfo(
        HookPoint.SMC_LOOKUP, "on_smc_lookup",
        "src/repro/core/controller.py",
        "SMC entry corruption: parity detection drops the entry",
        batch_method="on_smc_lookup_batch"),
    HookPoint.DRAM_ACCESS: HookInfo(
        HookPoint.DRAM_ACCESS, "on_dram_access",
        "src/repro/core/controller.py",
        "per-rank DRAM ECC single/multi-bit error accounting",
        batch_method="on_dram_access_batch"),
    HookPoint.MIGRATION_COPY: HookInfo(
        HookPoint.MIGRATION_COPY, "on_migration_copies",
        "src/repro/core/migration.py",
        "abort an in-flight segment copy at a chosen progress counter"),
    HookPoint.MPSM_EXIT: HookInfo(
        HookPoint.MPSM_EXIT, "on_power_exit",
        "src/repro/core/power_down.py",
        "delayed or failed MPSM exit on rank-group reactivation"),
    HookPoint.SR_EXIT: HookInfo(
        HookPoint.SR_EXIT, "on_power_exit",
        "src/repro/core/self_refresh.py",
        "delayed or failed self-refresh exit on victim-block wake"),
}


__all__ = ["HookPoint", "HookInfo", "HOOK_CATALOG"]
