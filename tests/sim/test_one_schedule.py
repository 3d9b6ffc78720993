"""run() == full advance() drive == checkpoint-at-1-and-resume ==
checkpoint-every-round, with failures.

The fan-out experiments plan their tasks once in ``begin()`` and fold
outcomes in one place; the ``FanOut`` base's ``run()`` and ``advance()``
differ only in how many tasks they hand the executor at a time
(everything, or one round of ``workers``).  These tests hold the four ways of driving that schedule
to the same records, the same failures (seeds and exact error strings),
and the same cell order — including when nodes or cells fail.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.checkpoint import (checkpoint_state, load_checkpoint, resume_state,
                              run_with_checkpoints, save_checkpoint, stepping)
from repro.exec import ExecConfig
from repro.host.scheduler import SchedulerConfig
from repro.sim.fleet import FleetConfig, FleetSimulator
from repro.sim.powerdown_sim import PowerDownSimConfig
from repro.sim.rank_sweep import RankSweepExperiment, TraceRankSweepConfig
from repro.sim.tournament import PolicyTournament, TournamentConfig
from repro.workloads.azure import AzureTraceConfig

# force_pool: on a single-CPU host the cpu_bound heuristic would keep
# run() in-process and the comparison would stop crossing processes.
POOL = ExecConfig(workers=2, force_pool=True)


def make_fleet(exec_config=POOL) -> FleetSimulator:
    node = PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=4, duration_s=600.0),
        scheduler=SchedulerConfig(duration_s=600.0))
    simulator = FleetSimulator(
        FleetConfig(num_nodes=5, node=node), exec_config)
    simulator.fail_seeds = (2,)
    return simulator


def make_rank_sweep() -> RankSweepExperiment:
    return RankSweepExperiment(
        TraceRankSweepConfig(num_accesses=3_000, rank_counts=(8, 6, 2)), POOL)


def make_tournament() -> PolicyTournament:
    return PolicyTournament(
        TournamentConfig(policies=("paper", "bogus"), duration_s=1.0), POOL)


#: name -> (factory, cell order of a result)
CASES = {
    "fleet": (make_fleet,
              lambda result: [node.seed for node in result.nodes]),
    "rank_sweep": (make_rank_sweep, lambda result: list(result.points)),
    "tournament": (make_tournament,
                   lambda result: [(cell.policy, cell.workload)
                                   for cell in result.cells]),
}


def stepped(experiment):
    state = experiment.begin()
    while experiment.advance(state):
        pass
    return experiment.finish(state)


def stepped_rounds(experiment) -> list[int]:
    """``state.done`` after every advance of a full stepped drive."""
    state = experiment.begin()
    rounds = []
    more = True
    while more:
        more = experiment.advance(state)
        rounds.append(state.done)
    return rounds


def resumed_at_step_1(make, path: str):
    first = make()
    state = first.begin()
    assert first.advance(state), "nothing left to resume"
    save_checkpoint(checkpoint_state(first, state, 1), path)
    second = make()
    state = resume_state(second, load_checkpoint(path))
    while second.advance(state):
        pass
    return second.finish(state)


def failures_of(result) -> list[tuple]:
    return [dataclasses.astuple(failure)
            if dataclasses.is_dataclass(failure) else tuple(failure)
            for failure in getattr(result, "failures", [])]


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_equals_stepped_equals_resumed(name, tmp_path):
    make, order = CASES[name]
    reference = make().run()
    expected = (reference.to_record().to_dict(), failures_of(reference),
                order(reference))
    for other in (stepped(make()),
                  resumed_at_step_1(make, str(tmp_path / "run.ckpt")),
                  run_with_checkpoints(make(), str(tmp_path / "every.ckpt"),
                                       every=1)):
        assert (other.to_record().to_dict(), failures_of(other),
                order(other)) == expected
    # The failing node / cell really failed, so the equality above
    # covered the failure path and not three clean runs.
    if name == "fleet":
        assert failures_of(reference) == [
            (2, "RuntimeError: injected failure for node 2")]
    if name == "tournament":
        assert {policy for policy, _, _ in reference.failures} == {"bogus"}


def test_checkpointed_fleet_keeps_its_workers(monkeypatch, tmp_path):
    """A step of a fan-out is one round of ``workers`` tasks, so a run
    under ``--checkpoint`` still crosses into the pool."""
    pids = []
    drive = stepping.run_tasks

    def recording(tasks, *args, stream, **kwargs):
        def spy(index, outcome):
            pids.append(outcome.worker_pid)
            stream(index, outcome)
        return drive(tasks, *args, stream=spy, **kwargs)

    monkeypatch.setattr(stepping, "run_tasks", recording)
    path = str(tmp_path / "fleet.ckpt")
    run_with_checkpoints(make_fleet(), path, every=1)
    # Five nodes: two rounds of two on the pool, then the odd one out.
    assert len(pids) == 5 and os.getpid() not in pids[:2]
    assert load_checkpoint(path).step == 3
    assert stepped_rounds(make_fleet()) == [2, 4, 5]
    assert stepped_rounds(make_fleet(ExecConfig(workers=1))) == \
        [1, 2, 3, 4, 5]


def test_stepped_fleet_reports_the_executor_counters_of_its_nodes():
    serial = ExecConfig(workers=1)
    ran = make_fleet(serial).run().exec_telemetry["counters"]
    walked = stepped(make_fleet(serial)).exec_telemetry["counters"]
    assert walked["exec.tasks.completed"] == 4  # node 2 fails
    assert walked["exec.tasks.failed"] == 1
    assert walked["exec.result_bytes"] > 0
    for name in ("exec.tasks.completed", "exec.tasks.failed",
                 "exec.result_bytes"):
        assert walked[name] == ran[name]
