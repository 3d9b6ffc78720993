"""Checkpoints taken at hostile moments: mid-migration, mid-phase,
armed fault plans, non-default policies.

The restore-at-k suite proves identity for arbitrary k; these tests pin
the specific states the checkpoint layer is most likely to get wrong —
snapshots taken while work is in flight — and *assert the hostile
condition actually held*, so the coverage cannot silently rot into
snapshots of quiescent states.
"""

from __future__ import annotations

import dataclasses

from repro.checkpoint import checkpoint_state, resume_state
from repro.exec.hashing import stable_hash
from repro.faults import ChaosSoakConfig
from repro.sim.experiments import EXPERIMENTS, make_experiment


def drive_from(stepper, state):
    while stepper.advance(state):
        pass
    return stepper.finish(state)


def resume_and_finish(name, config, checkpoint):
    resumer = make_experiment(name, config)
    return drive_from(resumer, resume_state(resumer, checkpoint))


def records_equal(a, b) -> bool:
    ra, rb = a.to_record(), b.to_record()
    return (ra.metrics == rb.metrics
            and stable_hash(ra.metrics) == stable_hash(rb.metrics))


def test_powerdown_snapshot_with_migration_in_flight():
    # The registry's tiny config never migrates; this one does (40 VMs
    # churning for half an hour forces rank-vacating moves by interval
    # 4 of 6, so the snapshot lands with intervals still to run).
    from repro.host.scheduler import SchedulerConfig
    from repro.sim.powerdown_sim import PowerDownSimConfig
    from repro.workloads.azure import AzureTraceConfig
    config = PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=40, duration_s=1800.0),
        scheduler=SchedulerConfig(duration_s=1800.0))
    cold = make_experiment("powerdown", config).run()
    assert cold.migrated_bytes > 0

    stepper = make_experiment("powerdown", config)
    state = stepper.begin()
    step = 0
    hostile_step = None
    checkpoint = None
    more = True
    while more:
        more = stepper.advance(state)
        step += 1
        if checkpoint is None and (state.pending_migration_bytes > 0
                                   or state.migrated_bytes_total > 0):
            hostile_step = step
            checkpoint = checkpoint_state(stepper, state, step)
    assert checkpoint is not None, \
        "tiny powerdown config never migrated; hostile coverage lost"
    assert hostile_step < step  # mid-run, not the final state

    resumed = resume_and_finish("powerdown", config, checkpoint)
    assert records_equal(cold, resumed)


def test_selfrefresh_snapshot_during_sr_phase_transitions():
    # Snapshot at the first step with ranks *currently in* self-refresh
    # while exits are still to come: the rank state machines, pending
    # swaps, and policy accumulators are all mid-flight.
    config = EXPERIMENTS["selfrefresh"].tiny_config()
    cold = make_experiment("selfrefresh", config).run()
    assert cold.sr_entries > 0 and cold.sr_exits > 0

    stepper = make_experiment("selfrefresh", config)
    state = stepper.begin()
    checkpoint = None
    more = True
    step = 0
    while more:
        more = stepper.advance(state)
        step += 1
        if (checkpoint is None and more
                and state.steps[-1].sr_ranks > 0):
            checkpoint = checkpoint_state(stepper, state, step)
    assert checkpoint is not None, \
        "never caught the run with a rank in self-refresh"

    resumed = resume_and_finish("selfrefresh", config, checkpoint)
    assert records_equal(cold, resumed)


def test_chaos_snapshot_with_armed_plan_partially_consumed():
    # The chaos soak arms a fault plan whose injectors carry countdown
    # state; a checkpoint between escalation levels captures partially
    # consumed counters.  Cold and resumed runs arm identically.
    config = ChaosSoakConfig(seed=3, levels=2, batches_per_phase=3,
                             batch_size=24)
    cold = make_experiment("chaos", config).run()

    stepper = make_experiment("chaos", config)
    state = stepper.begin()
    assert stepper.advance(state)  # level 0 done, level 1 pending
    assert state.level == 1 and len(state.reports) == 1
    assert state.reports[0].injected_total > 0, \
        "level 0 injected nothing; armed-counter coverage lost"
    checkpoint = checkpoint_state(stepper, state, 1)

    resumed = resume_and_finish("chaos", config, checkpoint)
    assert records_equal(cold, resumed)
    assert resumed.report.injected_total == cold.report.injected_total


def test_restore_identity_under_every_policy():
    base = EXPERIMENTS["selfrefresh"].tiny_config()
    from repro.policies import POLICIES
    for policy in sorted(POLICIES):
        config = dataclasses.replace(base, policy=policy, duration_s=1.0)
        cold = make_experiment("selfrefresh", config).run()

        stepper = make_experiment("selfrefresh", config)
        state = stepper.begin()
        for _ in range(3):
            stepper.advance(state)
        checkpoint = checkpoint_state(stepper, state, 3)
        resumed = resume_and_finish("selfrefresh", config, checkpoint)
        assert records_equal(cold, resumed), f"policy {policy!r} diverged"


def test_comparison_snapshot_between_legs():
    # powerdown_comparison runs baseline then DTL; step k=1 on the tiny
    # config is inside the baseline leg, and the snapshot must carry
    # the not-yet-started DTL leg's full begin() state.
    config = EXPERIMENTS["powerdown_comparison"].tiny_config()
    cold = make_experiment("powerdown_comparison", config).run()

    stepper = make_experiment("powerdown_comparison", config)
    state = stepper.begin()
    while not state.baseline_done:
        stepper.advance(state)
    checkpoint = checkpoint_state(stepper, state, 0)
    resumed = resume_and_finish("powerdown_comparison", config, checkpoint)
    ca, cb = cold.baseline.to_record(), cold.dtl.to_record()
    ra, rb = resumed.baseline.to_record(), resumed.dtl.to_record()
    assert ca.metrics == ra.metrics and cb.metrics == rb.metrics
