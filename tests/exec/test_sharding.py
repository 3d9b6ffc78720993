"""Tests for shard-granular fan-out and streaming aggregation.

Covers the slicing/plan helpers, the in-worker reduction loop (item
order, failure isolation), the shard-task factory, the
``exec.result_bytes`` accounting, ``ExecConfig.force_pool``, and the
``run_tasks(stream=...)`` contract: strict submission-order emission,
payload release after each fold, and cache writes before the drop.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass

import pytest

from repro.exec import (ExecConfig, ResultCache, TaskSpec, run_shard,
                        run_tasks, shard_slices, shard_tasks)
from repro.telemetry import MetricsRegistry


# -- picklable helpers (pool workers cannot see test-local lambdas) ---------


def _square(index: int) -> int:
    return index * index


def _big_payload(index: int) -> bytes:
    return bytes([index % 256]) * 65536


@dataclass(frozen=True)
class _AlwaysFails:
    def __call__(self, index: int) -> int:
        raise RuntimeError(f"boom {index}")


@dataclass(frozen=True)
class _SumReducer:
    """Reduces a shard to (sum of values, ordered indices, failures)."""

    def fresh(self):
        return {"total": 0, "order": [], "failures": []}

    def item(self, state, index, value):
        state["total"] += value
        state["order"].append(index)

    def failure(self, state, index, error):
        state["failures"].append((index, error))

    def finish(self, state):
        return state


class TestShardSlices:
    def test_even_split(self):
        assert shard_slices(6, 2) == [(0, 2), (2, 4), (4, 6)]

    def test_ragged_tail(self):
        assert shard_slices(5, 2) == [(0, 2), (2, 4), (4, 5)]

    def test_single_shard(self):
        assert shard_slices(3, 10) == [(0, 3)]

    def test_empty(self):
        assert shard_slices(0, 4) == []

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            shard_slices(4, 0)


class TestRunShard:
    def test_items_run_in_index_order(self):
        state = run_shard(_square, _SumReducer(), 2, 6)
        assert state["order"] == [2, 3, 4, 5]
        assert state["total"] == 4 + 9 + 16 + 25
        assert state["failures"] == []

    def test_exhausted_retries_record_failure_not_abort(self):
        """A failing item is recorded, not fatal."""
        state = run_shard(_AlwaysFails(), _SumReducer(), 0, 2)
        assert state["order"] == []
        assert [index for index, _ in state["failures"]] == [0, 1]
        assert "RuntimeError: boom 0" in state["failures"][0][1]


class TestShardTasks:
    def test_plan_and_labels(self):
        plan, tasks = shard_tasks(_square, _SumReducer(), count=5,
                                  shard_size=2, label="demo")
        assert plan.num_shards == 3
        assert plan.slices == ((0, 2), (2, 4), (4, 5))
        assert [task.label for task in tasks] == \
            ["demo[0:2]", "demo[2:4]", "demo[4:5]"]

    def test_key_fn_wires_cache_keys(self):
        _, tasks = shard_tasks(
            _square, _SumReducer(), count=4, shard_size=2,
            key_fn=lambda start, stop: f"k{start}-{stop}")
        assert [task.key for task in tasks] == ["k0-2", "k2-4"]

    def test_serial_equals_sharded_equals_parallel(self):
        """The fold total is identical for every execution shape."""
        def totals(shard_size, exec_config):
            _, tasks = shard_tasks(_square, _SumReducer(), count=10,
                                   shard_size=shard_size)
            outcomes = run_tasks(tasks, config=exec_config,
                                 metrics=MetricsRegistry())
            return sum(outcome.unwrap()["total"] for outcome in outcomes)

        expected = sum(i * i for i in range(10))
        assert totals(10, ExecConfig(workers=1)) == expected
        assert totals(3, ExecConfig(workers=1)) == expected
        assert totals(3, ExecConfig(workers=2,
                                    force_pool=True)) == expected


class TestResultBytesAccounting:
    def test_serial_path_measures_payloads(self):
        metrics = MetricsRegistry()
        tasks = [TaskSpec(fn=_big_payload, args=(i,)) for i in range(3)]
        outcomes = run_tasks(tasks, config=ExecConfig(workers=1),
                             metrics=metrics)
        assert all(outcome.result_bytes > 65536 for outcome in outcomes)
        counted = metrics.counter_values()["exec.result_bytes"]
        assert counted == sum(o.result_bytes for o in outcomes)

    def test_pool_path_measures_payloads(self):
        metrics = MetricsRegistry()
        tasks = [TaskSpec(fn=_big_payload, args=(i,)) for i in range(3)]
        outcomes = run_tasks(
            tasks, config=ExecConfig(workers=2, force_pool=True),
            metrics=metrics)
        assert all(outcome.result_bytes > 65536 for outcome in outcomes)
        assert metrics.counter_values()["exec.result_bytes"] == \
            sum(o.result_bytes for o in outcomes)

    def test_failed_task_ships_nothing(self):
        metrics = MetricsRegistry()
        tasks = [TaskSpec(fn=_AlwaysFails(), args=(0,))]
        [outcome] = run_tasks(tasks, config=ExecConfig(workers=1),
                              metrics=metrics)
        assert not outcome.ok
        assert outcome.result_bytes == 0
        assert "exec.result_bytes" not in metrics.counter_values()

    def test_sharding_shrinks_shipped_bytes(self):
        """The point of worker-side reduction: a shard of reduced items
        ships far less than the same items' full payloads."""
        def shipped(tasks):
            outcomes = run_tasks(tasks, config=ExecConfig(workers=1),
                                 metrics=MetricsRegistry())
            return sum(outcome.result_bytes for outcome in outcomes)

        flat = [TaskSpec(fn=_big_payload, args=(i,)) for i in range(8)]
        _, sharded = shard_tasks(_len_of_payload, _SumReducer(),
                                 count=8, shard_size=4)
        assert shipped(flat) / shipped(sharded) > 10


def _len_of_payload(index: int) -> int:
    return len(_big_payload(index))


class TestForcePool:
    def test_force_pool_crosses_process_boundary(self):
        """cpu_bound tasks on a 1-CPU host would normally skip the pool;
        force_pool must still ship them to workers."""
        parent_pid_tasks = [TaskSpec(fn=_worker_pid, cpu_bound=True)
                            for _ in range(2)]
        outcomes = run_tasks(
            parent_pid_tasks,
            config=ExecConfig(workers=2, force_pool=True),
            metrics=MetricsRegistry())
        import os
        assert all(outcome.worker_pid != os.getpid()
                   for outcome in outcomes)


def _worker_pid() -> int:
    import os
    return os.getpid()


class TestStreaming:
    def test_stream_emits_in_submission_order(self):
        seen = []
        tasks = [TaskSpec(fn=_square, args=(i,), label=f"t{i}")
                 for i in range(5)]
        run_tasks(tasks, config=ExecConfig(workers=1),
                  metrics=MetricsRegistry(),
                  stream=lambda index, outcome: seen.append(
                      (index, outcome.value)))
        assert seen == [(i, i * i) for i in range(5)]

    def test_stream_emits_in_order_on_the_pool(self):
        seen = []
        tasks = [TaskSpec(fn=_square, args=(i,)) for i in range(6)]
        run_tasks(tasks,
                  config=ExecConfig(workers=2, force_pool=True),
                  metrics=MetricsRegistry(),
                  stream=lambda index, outcome: seen.append(index))
        assert seen == list(range(6))

    def test_values_released_after_stream(self):
        """After streaming, neither the outcomes nor the runner hold the
        payloads: the only strong reference dies with the callback."""
        refs = []
        gc.collect()

        def stream(index, outcome):
            refs.append(weakref.ref(outcome.value))
            # Every previously streamed payload must already be gone.
            gc.collect()
            assert all(ref() is None for ref in refs[:-1])

        tasks = [TaskSpec(fn=_payload_list, args=(i,)) for i in range(4)]
        outcomes = run_tasks(tasks, config=ExecConfig(workers=1),
                             metrics=MetricsRegistry(), stream=stream)
        assert all(outcome.value is None for outcome in outcomes)
        assert all(outcome.ok for outcome in outcomes)
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_streamed_outcomes_keep_accounting(self):
        tasks = [TaskSpec(fn=_big_payload, args=(0,))]
        [outcome] = run_tasks(tasks, config=ExecConfig(workers=1),
                              metrics=MetricsRegistry(),
                              stream=lambda index, o: None)
        assert outcome.value is None
        assert outcome.result_bytes > 65536
        assert outcome.wall_time_s >= 0.0

    def test_cache_written_before_value_dropped(self):
        cache = ResultCache()
        tasks = [TaskSpec(fn=_square, args=(7,), key="sq7")]
        run_tasks(tasks, config=ExecConfig(workers=1), cache=cache,
                  metrics=MetricsRegistry(), stream=lambda i, o: None)
        hit, value = cache.get("sq7")
        assert hit and value == 49

    def test_stream_sees_cache_hits_and_failures(self):
        cache = ResultCache()
        cache.put("warm", 123)
        seen = []
        tasks = [TaskSpec(fn=_square, args=(2,), key="warm"),
                 TaskSpec(fn=_AlwaysFails(), args=(0,))]
        run_tasks(tasks, config=ExecConfig(workers=1),
                  cache=cache, metrics=MetricsRegistry(),
                  stream=lambda index, outcome: seen.append(
                      (index, outcome.from_cache, outcome.ok)))
        assert seen == [(0, True, True), (1, False, False)]


class _Payload:
    """Weakref-able result carrying a real chunk of data."""

    def __init__(self, index: int):
        self.data = list(range(index, index + 4096))


def _payload_list(index: int) -> _Payload:
    return _Payload(index)
