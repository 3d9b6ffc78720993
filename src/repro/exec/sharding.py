"""Shard-granular fan-out with worker-side reduction.

The flat fan-out path (one :class:`~repro.exec.runner.TaskSpec` per
item) pays process dispatch, ``task_key`` hashing, and result pickling
*per item* — and ships each item's full result object back to the
parent.  For fleet-scale batches (thousands of cheap simulations) both
costs dominate the work itself; the flat path once measured a 0.81x
fleet "speedup" from exactly this (docs/PERF.md).

A **shard** is a contiguous run of item indices executed inside one
worker invocation.  The worker folds every item's result into a compact
aggregate through a :class:`ShardReducer` *before* anything crosses the
process boundary, so what comes back per shard is the reduced summary,
not the payloads.  Combined with ``run_tasks(stream=...)`` the parent
folds each shard aggregate as it arrives and releases it — no process
ever materialises the whole batch's records.

Determinism contract: items inside a shard run in index order, and the
parent receives shards in submission (index) order, so a caller that
folds per-item values in index order observes the exact same float
operation sequence regardless of shard size or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.exec.runner import TaskSpec, _describe_error


def shard_slices(count: int, shard_size: int) -> list[tuple[int, int]]:
    """Cut ``range(count)`` into contiguous ``(start, stop)`` shards."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [(start, min(start + shard_size, count))
            for start in range(0, count, shard_size)]


class ShardReducer(Protocol):
    """Worker-side fold over one shard's item results.

    Implementations must be picklable (they ship to the worker with the
    shard task) and must not depend on cross-shard state: ``fresh()``
    starts an empty aggregate per shard, and the parent merges finished
    aggregates in shard order.
    """

    def fresh(self) -> Any:
        """A new, empty aggregate state for one shard."""
        ...

    def item(self, state: Any, index: int, value: Any) -> None:
        """Fold one successful item result into ``state``."""
        ...

    def failure(self, state: Any, index: int, error: str) -> None:
        """Record one failed item in ``state``."""
        ...

    def finish(self, state: Any) -> Any:
        """The compact aggregate shipped back to the parent."""
        ...


def run_shard(item_fn: Callable[[int], Any], reducer: ShardReducer,
              start: int, stop: int) -> Any:
    """Execute items ``start..stop`` in order, reduced to one aggregate.

    Runs inside the worker (or in-process on the serial path — same
    code, same result).  A failing item is recorded via
    :meth:`ShardReducer.failure`; it never fails the whole shard.
    """
    state = reducer.fresh()
    for index in range(start, stop):
        try:
            value = item_fn(index)
        except Exception as exc:
            reducer.failure(state, index, _describe_error(exc))
        else:
            reducer.item(state, index, value)
    return reducer.finish(state)


@dataclass(frozen=True)
class ShardPlan:
    """How a batch of ``count`` items was cut into shard tasks."""

    count: int
    shard_size: int
    slices: tuple[tuple[int, int], ...]

    @property
    def num_shards(self) -> int:
        return len(self.slices)


def shard_tasks(item_fn: Callable[[int], Any], reducer: ShardReducer,
                count: int, shard_size: int,
                key_fn: Callable[[int, int], str | None] | None = None,
                label: str = "shard", cpu_bound: bool = True,
                ) -> tuple[ShardPlan, list[TaskSpec]]:
    """Build one :class:`TaskSpec` per shard of ``range(count)``.

    Args:
        item_fn: Picklable per-item callable (index -> result).
        reducer: Worker-side fold; see :class:`ShardReducer`.
        count: Number of items.
        shard_size: Items per shard (the last shard may be shorter).
        key_fn: Optional ``(start, stop) -> cache key`` for shard-level
            result caching.
        label: Task label prefix; shards are labelled
            ``{label}[start:stop]``.
        cpu_bound: Forwarded to :class:`TaskSpec`.
    """
    slices = shard_slices(count, shard_size)
    tasks = [
        TaskSpec(fn=run_shard, args=(item_fn, reducer, start, stop),
                 key=key_fn(start, stop) if key_fn is not None else None,
                 label=f"{label}[{start}:{stop}]",
                 cpu_bound=cpu_bound)
        for start, stop in slices
    ]
    plan = ShardPlan(count=count, shard_size=shard_size,
                     slices=tuple(slices))
    return plan, tasks


__all__ = [
    "ShardPlan",
    "ShardReducer",
    "run_shard",
    "shard_slices",
    "shard_tasks",
]
