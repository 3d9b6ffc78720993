"""Versioned checkpoints of simulation state.

Two layers:

* :mod:`repro.checkpoint.state` — the :class:`Checkpoint` container:
  a versioned, content-hashed pickle of one simulator's run state, with
  atomic save/load to disk.
* :mod:`repro.checkpoint.stepping` — the stepping protocol every
  registered experiment implements (``begin`` / ``advance`` /
  ``finish``, the shared ``run()`` over them, and the :class:`FanOut`
  base whose subclasses supply only ``begin`` / ``fold`` / ``finish``)
  plus drive helpers: run to completion, snapshot at step *k*, resume
  from a saved checkpoint.

The contract is **bit-identity**: a run restored at step *k* produces
byte-identical records, telemetry totals, and checker audits to the
uninterrupted run (see ``tests/checkpoint/`` and docs/CHECKPOINT.md).
"""

from repro.checkpoint.state import (CHECKPOINT_VERSION, Checkpoint,
                                    CheckpointError, load_checkpoint,
                                    restore, save_checkpoint, snapshot)
from repro.checkpoint.stepping import (FanOut, FanOutState,
                                       SteppedExperiment, Stepper,
                                       checkpoint_state, resume_state,
                                       run_stepped, run_to_step,
                                       run_with_checkpoints)

__all__ = [
    "checkpoint_state",
    "resume_state",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "snapshot",
    "restore",
    "save_checkpoint",
    "load_checkpoint",
    "Stepper",
    "SteppedExperiment",
    "FanOut",
    "FanOutState",
    "run_stepped",
    "run_to_step",
    "run_with_checkpoints",
]
