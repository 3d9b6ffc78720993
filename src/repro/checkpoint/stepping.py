"""The stepping protocol: experiments as resumable state machines.

A registered experiment *is* a :class:`Stepper` — that is the one
contract the registry, the CLI, the executor and the checkpoint drivers
share:

* ``begin() -> state`` — build the full run state (controller,
  workload generators, RNG streams, accumulators) without advancing it.
* ``advance(state) -> bool`` — perform one unit of work (a simulation
  step, one sweep cell, one fleet node...); returns True while more
  work remains.  Must be a no-op returning False once the run is
  complete, so resuming from a final checkpoint is safe.
* ``finish(state) -> result`` — summarise the state into the result
  (an object with ``to_record()``).
* ``run() -> result`` — the whole run in one call.

``run()`` is written once per shape.  :class:`SteppedExperiment` gives
it to every experiment as :func:`run_stepped` (begin, advance until
False, finish).  The three fan-out experiments (fleet, rank sweep,
tournament) inherit :class:`FanOut` instead: their ``begin()`` plans
the ordered :class:`~repro.exec.TaskSpec` list into a
:class:`FanOutState`, they supply ``fold(state, index, outcome)`` and
``finish(state)``, and the base owns the task cursor — ``advance()``
runs one round of ``resolved_workers()`` planned tasks, ``run()`` all
remaining tasks in one executor batch, both through one drive — so the
stepped and monolithic paths cannot drift: bit-identity of a restored
run is a property of construction, then *proven* by the
restore-at-step-k suite in ``tests/checkpoint/``.

This lives here rather than under :mod:`repro.sim` because
``repro.faults.chaos`` and ``repro.server.soak`` are steppers too, and
:mod:`repro.sim` imports both.

The run *state* object must be picklable; :func:`checkpoint_state`
captures it, :func:`resume_state` reconstructs it, and
:func:`run_with_checkpoints` strings those into a preemptible run for
``repro exp --checkpoint/--resume``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from repro.checkpoint.state import (Checkpoint, CheckpointError,
                                    load_checkpoint, restore,
                                    save_checkpoint, snapshot)
from repro.exec import ExecConfig, TaskSpec, run_tasks
from repro.telemetry import MetricsRegistry


@runtime_checkable
class Stepper(Protocol):
    """An experiment that can run one unit of work at a time."""

    name: str

    def begin(self) -> Any:
        """Build and return the initial run state."""

    def advance(self, state: Any) -> bool:
        """Do one unit of work; True while more remains."""

    def finish(self, state: Any) -> Any:
        """Summarise a completed (or to-be-abandoned) run state."""

    def run(self) -> Any:
        """The whole run in one call; same result as the stepped drive."""


def run_stepped(stepper: Stepper, *begin_args: Any) -> Any:
    """Drive a stepper from ``begin`` to ``finish``; returns the result."""
    state = stepper.begin(*begin_args)
    while stepper.advance(state):
        pass
    return stepper.finish(state)


class SteppedExperiment:
    """Base class giving a :class:`Stepper` its one-shot ``run()``."""

    def run(self, *begin_args: Any) -> Any:
        """``begin(*begin_args)``, ``advance`` until done, ``finish`` —
        the stepped path and the one-shot path are the same code."""
        return run_stepped(self, *begin_args)


@dataclass(kw_only=True)
class FanOutState:
    """The task cursor of a :class:`FanOut` run; experiments subclass it
    with their fold's accumulators."""

    #: The planned tasks, in fold order.
    tasks: list[TaskSpec]
    #: ``tasks[:done]`` have been run and folded.
    done: int = 0
    #: Executor accounting of every task run so far.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


class FanOut(SteppedExperiment):
    """An experiment that is a planned list of independent executor tasks.

    A subclass supplies ``begin() -> FanOutState`` (the plan),
    ``fold(state, index, outcome)`` (called in submission order,
    ``index`` into ``state.tasks``) and ``finish(state)``.
    """

    #: How the tasks execute; it never changes a result.
    exec_config: ExecConfig | None = None

    def _run_pending(self, state: FanOutState, one_round: bool) -> bool:
        """Run the next round of pending tasks (all of them unless
        ``one_round``), folding each outcome; True while more remain."""
        config = self.exec_config or ExecConfig()
        start = state.done
        stop = len(state.tasks)
        if one_round:
            stop = min(stop, start + config.resolved_workers())
        if stop > start:
            run_tasks(state.tasks[start:stop], config=config,
                      metrics=state.metrics,
                      stream=lambda offset, outcome: self.fold(
                          state, start + offset, outcome))
        state.done = stop
        return stop < len(state.tasks)

    def advance(self, state: FanOutState) -> bool:
        """Run one round of ``resolved_workers()`` tasks (one when
        serial), so a checkpointed run keeps its workers busy."""
        return self._run_pending(state, one_round=True)

    def run(self) -> Any:
        """Run every planned task in one executor batch."""
        state = self.begin()
        self._run_pending(state, one_round=False)
        return self.finish(state)


def run_to_step(stepper: Stepper, steps: int) -> tuple[Any, int, bool]:
    """Advance a fresh run by up to ``steps`` units.

    Returns ``(state, steps_taken, more)`` where ``more`` is False when
    the run completed before (or exactly at) the requested step count.
    """
    state = stepper.begin()
    taken = 0
    more = True
    while more and taken < steps:
        more = stepper.advance(state)
        taken += 1
    return state, taken, more


def checkpoint_state(stepper: Stepper, state: Any, step: int,
                     meta: dict[str, Any] | None = None) -> Checkpoint:
    """Capture a stepper's run state as a versioned checkpoint."""
    return snapshot(stepper.name, step, state, meta=meta)


def resume_state(stepper: Stepper, checkpoint: Checkpoint) -> Any:
    """Reconstruct a run state captured from the same experiment kind."""
    if checkpoint.kind != stepper.name:
        raise CheckpointError(
            f"checkpoint is for {checkpoint.kind!r}, "
            f"not {stepper.name!r}")
    return restore(checkpoint)


def run_with_checkpoints(stepper: Stepper, path: str | None = None,
                         every: int = 0, resume: bool = False,
                         on_step: Callable[[int], None] | None = None) -> Any:
    """Run a stepper to completion, periodically persisting its state.

    Args:
        stepper: The experiment to drive.
        path: Checkpoint file.  ``None`` disables persistence (the run
            is then just :func:`run_stepped`).
        every: Save every N advances (0 = only on completion).
        resume: Start from the state in ``path`` when it exists; a
            missing file falls back to a fresh ``begin()``.  A file
            whose run already completed (``meta["complete"]``) comes
            straight back through ``finish()``: no advance, no step
            count drift, no rewrite.
        on_step: Optional progress callback, called with the step count
            after each advance.

    Returns:
        The experiment result, exactly as ``run()`` would produce it.
    """
    step = 0
    state = None
    if resume and path is not None and os.path.exists(path):
        checkpoint = load_checkpoint(path)
        state = resume_state(stepper, checkpoint)
        if checkpoint.meta.get("complete"):
            return stepper.finish(state)
        step = checkpoint.step
    if state is None:
        state = stepper.begin()
    more = True
    while more:
        more = stepper.advance(state)
        step += 1
        if on_step is not None:
            on_step(step)
        if path is not None and ((every and step % every == 0) or not more):
            save_checkpoint(checkpoint_state(stepper, state, step,
                                             meta={"complete": not more}),
                            path)
    return stepper.finish(state)


__all__ = [
    "Stepper",
    "SteppedExperiment",
    "FanOut",
    "FanOutState",
    "run_stepped",
    "run_to_step",
    "checkpoint_state",
    "resume_state",
    "run_with_checkpoints",
]
