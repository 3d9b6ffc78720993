"""Parallel experiment execution: task runner, result cache, seeding.

The experiments in :mod:`repro.sim` are embarrassingly parallel — a
fleet is independent node simulations, a rank sweep is independent rank
counts, a sensitivity grid is independent constant pairs.  This package
gives them one shared executor:

* :func:`run_tasks` — ordered fan-out over a process pool with
  per-task error capture, serial fallback, and telemetry accounting;
* :class:`ResultCache` — on-disk result cache keyed by a stable hash of
  the experiment's config dataclass;
* :func:`derive_seed` — deterministic per-task seed derivation.

Nothing here imports from :mod:`repro.sim`; the simulators depend on the
executor, never the other way around.
"""

from repro.exec.cache import CACHE_DIR_ENV, ResultCache
from repro.exec.hashing import canonical, derive_seed, stable_hash, task_key
from repro.exec.runner import (EXEC_METRICS, ExecConfig, NESTED_ENV,
                               TaskOutcome, TaskSpec, WORKERS_ENV,
                               default_workers, run_tasks)

__all__ = [
    "CACHE_DIR_ENV",
    "ResultCache",
    "canonical",
    "derive_seed",
    "stable_hash",
    "task_key",
    "EXEC_METRICS",
    "ExecConfig",
    "NESTED_ENV",
    "TaskOutcome",
    "TaskSpec",
    "WORKERS_ENV",
    "default_workers",
    "run_tasks",
]
