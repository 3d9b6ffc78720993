"""A shard audits after every injected migration abort, drains included.

``apply_free`` drains in-flight background copies before it frees; the
aborts an armed plan fires inside that drain each get their own
consistency audit, exactly as they do between access batches.
"""

from repro.core.config import small_dtl_config
from repro.faults import FaultPlan, HookPoint, MigrationAbortFault
from repro.server.shards import ControllerShard
from repro.units import MIB


def consolidating_shard() -> tuple[ControllerShard, list]:
    """Six 16 MiB VMs; freeing the second and fourth fences a victim
    group whose evacuation copies are still pending."""
    plan = FaultPlan(seed=0, name="drain-aborts", specs=(
        MigrationAbortFault(start=0, period=3, max_fires=8),))
    shard = ControllerShard(0, small_dtl_config(), fault_plan=plan)
    vms = [shard.apply_allocate(host, 16 * MIB) for host in range(6)]
    shard.apply_free(vms[1])
    shard.apply_free(vms[3])
    return shard, vms


def test_free_audits_after_every_abort_it_drains():
    shard, vms = consolidating_shard()
    assert shard.controller.migration.pending_count() > 0
    aborts = shard.injector.injected(HookPoint.MIGRATION_COPY)
    audits = shard.audits
    shard.apply_free(vms[0])
    fired = shard.injector.injected(HookPoint.MIGRATION_COPY) - aborts
    assert fired >= 2
    assert shard.audits - audits >= fired
    assert shard.controller.migration.pending_count() == 0
    assert shard.violations == []


def test_drain_migrations_is_the_free_drain():
    """The public drain quiesces the queue on its own, with the same
    audits, and leaves nothing for the free after it to pump."""
    shard, vms = consolidating_shard()
    twin, twin_vms = consolidating_shard()
    shard.drain_migrations()
    assert shard.controller.migration.pending_count() == 0
    shard.apply_free(vms[0])
    twin.apply_free(twin_vms[0])
    assert shard.fingerprint() == twin.fingerprint()
