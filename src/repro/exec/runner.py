"""Parallel experiment execution on a process pool.

:func:`run_tasks` is the single entry point: it takes an ordered list of
:class:`TaskSpec` (a picklable function plus arguments, optionally a
cache key) and returns one :class:`TaskOutcome` per task, in submission
order, regardless of completion order — so callers that require
determinism (fleet fan-out, rank sweeps) get bit-identical results
whether the batch ran serially or on workers.

Execution model:

* ``workers`` resolves from the :class:`ExecConfig`, falling back to the
  ``REPRO_EXEC_WORKERS`` environment variable, falling back to 1.
* ``workers <= 1`` (or a single pending task) runs everything in-process
  — the serial path is the parallel path minus the pool, not a separate
  code path for results.
* Worker processes are marked via an initializer so nested ``run_tasks``
  calls inside a worker (e.g. a fleet task whose nodes would themselves
  fan out) degrade to serial instead of forking grandchild pools —
  whatever ``workers`` the nested config names; only ``force_pool``
  asks for the crossing anyway.
* Every pending task is one pool job, run once.  A task is a pure
  function of pickled arguments, so one that raises would raise again:
  it becomes ``outcome.error`` (``"<Type>: <message>"``, the same
  string on both paths) and the rest of the batch carries on.
* If the pool cannot be created or breaks mid-batch (a worker died, the
  platform lacks working process support), the unfinished tasks fall
  back to serial execution.

Accounting goes to a :class:`~repro.telemetry.registry.MetricsRegistry`
(the module-level :data:`EXEC_METRICS` by default): per-task wall time
as a histogram, plus counters for completions, failures, cache hits,
pool skips, and serial fallbacks.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exec.cache import ResultCache
from repro.telemetry import MetricsRegistry

#: Environment variable giving the default worker count.
WORKERS_ENV = "REPRO_EXEC_WORKERS"

#: Set in worker processes so nested batches run serially.
NESTED_ENV = "REPRO_EXEC_NESTED"

#: Wall-time histogram bounds (seconds): a cache-warm no-op through a
#: full six-hour schedule simulation.
TASK_WALL_BUCKETS_S = (0.001, 0.01, 0.05, 0.25, 1.0, 5.0, 15.0, 60.0,
                       300.0, 1800.0)

#: Default registry receiving executor accounting.
EXEC_METRICS = MetricsRegistry()


def default_workers() -> int:
    """Worker count from the environment (1 when unset or nested)."""
    if os.environ.get(NESTED_ENV):
        return 1
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class ExecConfig:
    """How a batch of tasks should execute.

    Attributes:
        workers: Process count; ``None`` defers to ``REPRO_EXEC_WORKERS``.
        force_pool: Always use the pool when ``workers > 1``, even when
            the single-CPU heuristic would skip it or the batch is
            itself running inside a pool worker.  Used by bit-identity
            tests and soak verification legs that must exercise the
            cross-process path regardless of host shape.

    Neither value can change a result or an error: the serial path is
    the parallel path minus the pool.
    """

    workers: int | None = None
    force_pool: bool = False

    def resolved_workers(self) -> int:
        """The effective worker count for this config (1 inside a pool
        worker, unless ``force_pool``)."""
        if os.environ.get(NESTED_ENV) and not self.force_pool:
            return 1
        if self.workers is None:
            return default_workers()
        return max(1, int(self.workers))


@dataclass
class TaskSpec:
    """One unit of work: a picklable callable plus its arguments.

    ``key`` (optional) makes the task cacheable: a
    :class:`~repro.exec.cache.ResultCache` hit skips execution entirely.
    On the parallel path ``fn`` and its arguments must be picklable —
    module-level functions, not lambdas.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    key: str | None = None
    label: str = ""
    #: CPU-bound tasks gain nothing from a process pool on a single-core
    #: host (the pool only adds pickling + context-switch overhead), so
    #: the runner keeps them in-process there.
    cpu_bound: bool = False


@dataclass
class TaskOutcome:
    """What happened to one task."""

    label: str
    value: Any = None
    error: str | None = None
    wall_time_s: float = 0.0
    from_cache: bool = False
    worker_pid: int | None = None
    #: Pickled size of ``value`` — what the task shipped (or would ship)
    #: back through the pool.  0 for failures and unpicklable values.
    result_bytes: int = 0

    @property
    def ok(self) -> bool:
        """True when the task produced a value (run or cache)."""
        return self.error is None

    def unwrap(self) -> Any:
        """The task's value, or ``RuntimeError`` if it failed."""
        if self.error is not None:
            raise RuntimeError(f"task {self.label or '<unnamed>'} failed: "
                               f"{self.error}")
        return self.value


class _Meter:
    """None-safe facade over the metrics registry."""

    def __init__(self, metrics: MetricsRegistry):
        self.metrics = metrics

    def count(self, name: str, amount: float = 1) -> None:
        self.metrics.counter(f"exec.{name}").inc(amount)

    def task_resolved(self, outcome: TaskOutcome) -> None:
        if not outcome.ok:
            self.count("tasks.failed")
            return
        self.count("tasks.completed")
        self.metrics.histogram(
            "exec.task_wall_s",
            bounds=TASK_WALL_BUCKETS_S).observe(outcome.wall_time_s)
        self.metrics.counter("exec.wall_time_s").inc(outcome.wall_time_s)
        if outcome.result_bytes:
            self.count("result_bytes", outcome.result_bytes)


def _worker_init() -> None:
    """Mark the process so nested batches stay serial."""
    os.environ[NESTED_ENV] = "1"


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _payload_size(value: Any) -> int:
    """Pickled size of a task result (0 when unpicklable).

    Measured in the worker — it is exactly what crosses the process
    boundary — and on the serial path too, so ``exec.result_bytes``
    stays comparable when a batch never reaches the pool (single-core
    hosts).
    """
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


def _invoke(fn: Callable[..., Any], args: tuple, kwargs: dict,
            label: str) -> TaskOutcome:
    """Run one task to its outcome; executes in the worker or in-process."""
    start = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:
        return TaskOutcome(label=label, error=_describe_error(exc))
    return TaskOutcome(label=label, value=value,
                       wall_time_s=time.perf_counter() - start,
                       worker_pid=os.getpid(),
                       result_bytes=_payload_size(value))


def _run_pool(tasks: list[TaskSpec], pending: list[int],
              outcomes: list[TaskOutcome | None], workers: int,
              meter: _Meter,
              drain: Callable[[], None] | None = None) -> list[int]:
    """Run ``pending`` task indices on a pool; fill ``outcomes``.

    One task per pool job, resolved in submission order so a streaming
    caller sees each outcome as soon as every earlier one has landed.
    Returns the indices that still need (serial) execution — empty on a
    clean run, the unfinished tail when the pool broke.
    """
    try:
        executor = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            initializer=_worker_init)
    except (OSError, ValueError, NotImplementedError):
        meter.count("serial_fallbacks")
        return pending
    try:
        futures = {index: executor.submit(
                       _invoke, tasks[index].fn, tasks[index].args,
                       tasks[index].kwargs, tasks[index].label)
                   for index in pending}
        for index in pending:
            # Popped so the future (and the result payload it pins) is
            # released before the outcome streams.
            try:
                outcome = futures.pop(index).result()
            except BrokenProcessPool:
                raise
            except Exception as exc:
                # Failure outside the task itself (e.g. an unpicklable
                # result).
                outcome = TaskOutcome(label=tasks[index].label,
                                      error=_describe_error(exc))
            outcomes[index] = outcome
            meter.task_resolved(outcome)
            if drain is not None:
                drain()
    except BrokenProcessPool:
        meter.count("serial_fallbacks")
        return [index for index in pending if outcomes[index] is None]
    finally:
        # Every job still running is one this batch would have waited
        # for; joining the workers here keeps the pool's teardown out
        # of interpreter exit.
        executor.shutdown(wait=True, cancel_futures=True)
    return []


def _should_skip_pool(tasks: list[TaskSpec], pending: list[int]) -> bool:
    """True when a process pool can only slow this batch down.

    The host has a single CPU and every pending task is CPU-bound: no
    overlap to win, only pickling to pay.
    """
    return (os.cpu_count() or 1) == 1 and all(tasks[index].cpu_bound
                                              for index in pending)


def run_tasks(tasks: list[TaskSpec], config: ExecConfig | None = None,
              cache: ResultCache | None = None,
              metrics: MetricsRegistry | None = None,
              stream: Callable[[int, TaskOutcome], None] | None = None,
              ) -> list[TaskOutcome]:
    """Execute ``tasks``; returns outcomes in submission order.

    With ``stream``, every outcome is additionally handed to
    ``stream(index, outcome)`` in strict submission order as soon as all
    earlier tasks have resolved, and its ``value`` is released
    immediately afterwards (the returned outcomes keep label, error,
    timing, and ``result_bytes`` — not the payload).  This is the
    streaming-aggregation path: the caller folds each result into an
    accumulator and the batch never materialises all payloads at once.
    Cacheable results are written to ``cache`` before the value is
    dropped.
    """
    config = config or ExecConfig()
    meter = _Meter(metrics if metrics is not None else EXEC_METRICS)
    workers = config.resolved_workers()
    meter.metrics.gauge("exec.workers").set(workers)
    batch_start = time.perf_counter()

    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    pending: list[int] = []
    for index, task in enumerate(tasks):
        if cache is not None and task.key is not None:
            hit, value = cache.get(task.key)
            if hit:
                meter.count("cache.hits")
                outcomes[index] = TaskOutcome(label=task.label, value=value,
                                              from_cache=True)
                continue
        pending.append(index)

    emitted = 0

    def drain() -> None:
        """Emit resolved outcomes contiguously, then drop their values."""
        nonlocal emitted
        while emitted < len(outcomes) and outcomes[emitted] is not None:
            outcome = outcomes[emitted]
            key = tasks[emitted].key
            if (cache is not None and key is not None and outcome.ok
                    and not outcome.from_cache):
                cache.put(key, outcome.value)
            stream(emitted, outcome)
            outcome.value = None
            emitted += 1

    pool_drain = drain if stream is not None else None
    use_pool = workers > 1 and len(pending) > 1
    if (use_pool and not config.force_pool
            and _should_skip_pool(tasks, pending)):
        meter.count("pool_skips")
        use_pool = False
    if use_pool:
        pending = _run_pool(tasks, pending, outcomes, workers, meter,
                            drain=pool_drain)
    for index in pending:
        task = tasks[index]
        outcomes[index] = _invoke(task.fn, task.args, task.kwargs,
                                  task.label)
        meter.task_resolved(outcomes[index])
        if stream is not None:
            drain()
    if stream is not None:
        drain()
    elif cache is not None:
        for index, outcome in enumerate(outcomes):
            key = tasks[index].key
            if key is not None and outcome.ok and not outcome.from_cache:
                cache.put(key, outcome.value)
    meter.metrics.gauge("exec.last_batch_wall_s").set(
        time.perf_counter() - batch_start)
    if cache is not None:
        meter.metrics.gauge("exec.cache_bytes").set(cache.total_bytes())
    return outcomes  # type: ignore[return-value]


__all__ = [
    "ExecConfig",
    "TaskSpec",
    "TaskOutcome",
    "run_tasks",
    "default_workers",
    "EXEC_METRICS",
    "WORKERS_ENV",
    "NESTED_ENV",
    "TASK_WALL_BUCKETS_S",
]
