"""Registry bridge to the stepping protocol.

Every experiment registered in :data:`repro.sim.experiments.EXPERIMENTS`
implements the :class:`~repro.checkpoint.stepping.Stepper` protocol —
``begin() -> state`` / ``advance(state) -> bool`` / ``finish(state) ->
result`` — and its ``run()`` drives the same schedule, so a run
resumed from a mid-flight checkpoint is bit-identical to an
uninterrupted one by construction (and proven by the restore-at-step-k
suite in ``tests/checkpoint/``).

This module is where the CLI's ``repro exp --checkpoint/--resume`` path
and the test suite obtain steppers by name; it exists so that
:mod:`repro.checkpoint` (core machinery) never has to import
:mod:`repro.sim`.
"""

from __future__ import annotations

from typing import Any

from repro.checkpoint import Stepper
from repro.sim.experiments import EXPERIMENTS, make_experiment


def make_stepper(name: str, config: Any | None = None) -> Stepper:
    """Instantiate the named experiment as a stepper.

    Every registered experiment supports stepping; the isinstance check
    is a guard for future registrations that forget to.
    """
    experiment = make_experiment(name, config)
    if not isinstance(experiment, Stepper):
        raise TypeError(f"experiment {name!r} does not implement the "
                        "stepping protocol (begin/advance/finish)")
    return experiment


def stepper_names() -> list[str]:
    """Registered experiments that implement the stepping protocol."""
    return [name for name in sorted(EXPERIMENTS)
            if isinstance(make_experiment(
                name, EXPERIMENTS[name].tiny_config()), Stepper)]


__all__ = ["make_stepper", "stepper_names"]
