"""Restore-at-step-k bit-identity, for every registered experiment.

The contract (docs/CHECKPOINT.md): a run restored from a checkpoint
taken at step *k* produces results identical to the uninterrupted run —
same records, same telemetry totals, same checker audits.  Identity is
checked by value (``==`` plus :func:`~repro.exec.hashing.stable_hash`,
which treats floats bit-exactly); raw pickle bytes of whole records are
deliberately NOT compared, because pickle's memoisation encodes object
aliasing that can differ between two value-identical graphs.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (Stepper, checkpoint_state, load_checkpoint,
                              resume_state, run_to_step,
                              run_with_checkpoints)
from repro.exec.hashing import stable_hash
from repro.sim.experiments import EXPERIMENTS, make_experiment


def comparable(result) -> dict:
    record = result.to_record()
    return {"experiment": record.experiment, "metrics": record.metrics}


def assert_identical(cold, resumed) -> None:
    a, b = comparable(cold), comparable(resumed)
    assert a == b
    assert stable_hash(a) == stable_hash(b)


#: Cold-run results, one per experiment (the uninterrupted reference is
#: deterministic, so the hypothesis examples can share it).
_COLD: dict[str, object] = {}


def cold_run(name: str):
    if name not in _COLD:
        _COLD[name] = make_experiment(
            name, EXPERIMENTS[name].tiny_config()).run()
    return _COLD[name]


def restore_at_k(name: str, k: int):
    """Cold run vs run interrupted at step k and resumed from a snapshot."""
    config = EXPERIMENTS[name].tiny_config()
    cold = cold_run(name)

    prefix = make_experiment(name, config)
    state, taken, _more = run_to_step(prefix, k)
    checkpoint = checkpoint_state(prefix, state, taken)

    resumer = make_experiment(name, config)
    resumed_state = resume_state(resumer, checkpoint)
    while resumer.advance(resumed_state):
        pass
    return cold, resumer.finish(resumed_state)


def test_every_experiment_implements_stepping():
    for name in sorted(EXPERIMENTS):
        assert isinstance(
            make_experiment(name, EXPERIMENTS[name].tiny_config()), Stepper)


def test_restore_at_step_2_all_experiments():
    for name in sorted(EXPERIMENTS):
        cold, resumed = restore_at_k(name, 2)
        assert_identical(cold, resumed)


def test_restore_at_step_1_unit_experiments():
    # Step 1 is the hairiest point for the leg-structured experiments
    # (powerdown_comparison's baseline leg, chaos level 0): the
    # checkpoint lands exactly between phases.
    for name in ("powerdown_comparison", "chaos", "ramzzz_comparison"):
        cold, resumed = restore_at_k(name, 1)
        assert_identical(cold, resumed)


@settings(max_examples=4, deadline=None)
@given(k=st.integers(min_value=1, max_value=39))
def test_restore_at_any_step_selfrefresh(k):
    cold, resumed = restore_at_k("selfrefresh", k)
    assert_identical(cold, resumed)


def test_restore_past_the_end_is_safe():
    # A checkpoint taken at (or after) the final step resumes to the
    # same result: advance() is a no-op returning False once complete.
    cold, resumed = restore_at_k("rank_sweep", 10_000)
    assert_identical(cold, resumed)


def test_restored_selfrefresh_run_extends_by_raising_num_steps():
    # ``duration_s`` enters the run state only as ``num_steps``, so a
    # finished short run restored under the longer config and given the
    # longer step count *is* the longer run (docs/CHECKPOINT.md).
    short = EXPERIMENTS["selfrefresh"].tiny_config()
    longer = dataclasses.replace(short, duration_s=short.duration_s * 1.5)
    cold = make_experiment("selfrefresh", longer).run()

    prefix = make_experiment("selfrefresh", short)
    state, taken, _more = run_to_step(prefix, 10_000)
    checkpoint = checkpoint_state(prefix, state, taken)

    resumer = make_experiment("selfrefresh", longer)
    resumed_state = resume_state(resumer, checkpoint)
    resumed_state.num_steps = int(longer.duration_s / resumed_state.step_s)
    assert resumed_state.num_steps > taken
    while resumer.advance(resumed_state):
        pass
    assert_identical(cold, resumer.finish(resumed_state))


def test_resuming_a_finished_run_leaves_its_checkpoint_alone(tmp_path):
    # A completed state comes back through finish(): repeated --resume
    # runs must not advance, re-count the step, or rewrite the file.
    path = tmp_path / "run.ckpt"
    config = EXPERIMENTS["rank_sweep"].tiny_config()
    first = run_with_checkpoints(make_experiment("rank_sweep", config),
                                 path=str(path), every=1)
    step, written = load_checkpoint(str(path)).step, path.read_bytes()
    for _ in range(3):
        steps_seen: list[int] = []
        again = run_with_checkpoints(make_experiment("rank_sweep", config),
                                     path=str(path), every=1, resume=True,
                                     on_step=steps_seen.append)
        assert_identical(first, again)
        assert steps_seen == []
        assert load_checkpoint(str(path)).step == step
        assert path.read_bytes() == written
