"""The task runner: ordering, error capture, caching, nesting, fallback,
``exec.result_bytes`` accounting, ``ExecConfig.force_pool``, and the
``run_tasks(stream=...)`` contract: strict submission-order emission,
payload release after each fold, and cache writes before the drop.

The task functions live at module level so the parallel path can pickle
them; coordination between runs/processes goes through files in
``tmp_path`` (shared by fork and spawn alike).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import weakref

import pytest

from repro.exec import (EXEC_METRICS, ExecConfig, NESTED_ENV, ResultCache,
                        TaskSpec, WORKERS_ENV, default_workers, run_tasks)
from repro.telemetry import MetricsRegistry


def _square(x):
    return x * x


def _boom():
    raise ValueError("boom")


def _pid():
    return os.getpid()


def _big_payload(index):
    return bytes([index % 256]) * 65536


def _touch_and_count(path):
    """Append one line per invocation; returns the invocation count."""
    with open(path, "a") as handle:
        handle.write("x\n")
    with open(path) as handle:
        return len(handle.readlines())


def _flaky(marker_path):
    """Fail on the first run, succeed once the marker exists."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        raise RuntimeError("transient failure")
    return "recovered"


def _die_in_a_worker(parent_pid, x):
    """Kill the hosting process unless it is the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return x * x


def _inner_pids(workers):
    """A task that fans out itself, naming a worker count explicitly."""
    outcomes = run_tasks([TaskSpec(fn=_pid) for _ in range(3)],
                         config=ExecConfig(workers=workers),
                         metrics=MetricsRegistry())
    return os.getpid(), [o.worker_pid for o in outcomes]


def test_exec_config_has_two_options():
    assert [f.name for f in dataclasses.fields(ExecConfig)] == \
        ["workers", "force_pool"]


def test_serial_values_in_submission_order():
    outcomes = run_tasks([TaskSpec(fn=_square, args=(x,), label=f"sq-{x}")
                          for x in range(6)], config=ExecConfig(workers=1))
    assert [o.value for o in outcomes] == [x * x for x in range(6)]
    assert all(o.ok and not o.from_cache for o in outcomes)
    assert outcomes[0].worker_pid == os.getpid()


def test_parallel_matches_serial():
    tasks = lambda: [TaskSpec(fn=_square, args=(x,)) for x in range(8)]
    serial = run_tasks(tasks(), config=ExecConfig(workers=1))
    parallel = run_tasks(tasks(), config=ExecConfig(workers=2))
    assert [o.value for o in serial] == [o.value for o in parallel]


def test_parallel_runs_in_worker_processes():
    outcomes = run_tasks([TaskSpec(fn=_pid) for _ in range(4)],
                         config=ExecConfig(workers=2))
    pids = {o.worker_pid for o in outcomes}
    assert os.getpid() not in pids


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_task_reports_the_same_error_on_both_paths(workers):
    outcomes = run_tasks([TaskSpec(fn=_boom, label="doomed"),
                          TaskSpec(fn=_square, args=(3,))],
                         config=ExecConfig(workers=workers))
    assert not outcomes[0].ok
    assert outcomes[0].error == "ValueError: boom"
    assert outcomes[1].value == 9
    with pytest.raises(RuntimeError, match="doomed"):
        outcomes[0].unwrap()


def test_explicit_workers_inside_a_worker_stay_serial():
    """A nested batch degrades to serial whatever ``workers`` it names."""
    outcomes = run_tasks([TaskSpec(fn=_inner_pids, args=(2,))
                          for _ in range(2)],
                         config=ExecConfig(workers=2))
    for outcome in outcomes:
        worker, inner = outcome.unwrap()
        assert worker != os.getpid()
        assert inner == [worker] * 3


def test_broken_pool_falls_back_to_serial():
    metrics = MetricsRegistry()
    outcomes = run_tasks([TaskSpec(fn=_die_in_a_worker,
                                   args=(os.getpid(), x)) for x in range(3)],
                         config=ExecConfig(workers=2), metrics=metrics)
    assert [o.value for o in outcomes] == [0, 1, 4]
    assert all(o.worker_pid == os.getpid() for o in outcomes)
    assert metrics.counter_values()["exec.serial_fallbacks"] == 1


def test_cache_hit_skips_execution(tmp_path):
    counter = str(tmp_path / "count")
    cache = ResultCache()
    task = TaskSpec(fn=_touch_and_count, args=(counter,), key="count-key")
    [first] = run_tasks([task], cache=cache)
    [second] = run_tasks([task], cache=cache)
    assert first.value == 1 and not first.from_cache
    assert second.value == 1 and second.from_cache  # did not run again
    assert cache.hits == 1


def test_failures_are_not_cached(tmp_path):
    marker = str(tmp_path / "marker")
    cache = ResultCache()
    task = TaskSpec(fn=_flaky, args=(marker,), key="flaky-key")
    [first] = run_tasks([task], cache=cache)
    assert not first.ok
    [second] = run_tasks([task], cache=cache)
    assert second.ok and not second.from_cache  # re-ran, marker now exists


def test_workers_env_default(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.delenv(NESTED_ENV, raising=False)
    assert default_workers() == 1
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert default_workers() == 3
    assert ExecConfig().resolved_workers() == 3
    assert ExecConfig(workers=2).resolved_workers() == 2
    monkeypatch.setenv(WORKERS_ENV, "not-a-number")
    assert default_workers() == 1


def test_nested_marker_forces_serial(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "4")
    monkeypatch.setenv(NESTED_ENV, "1")
    assert default_workers() == 1
    assert ExecConfig().resolved_workers() == 1
    assert ExecConfig(workers=3).resolved_workers() == 1
    assert ExecConfig(workers=3, force_pool=True).resolved_workers() == 3


def test_metrics_accounting():
    metrics = MetricsRegistry()
    run_tasks([TaskSpec(fn=_square, args=(2,)),
               TaskSpec(fn=_boom)],
              config=ExecConfig(workers=1), metrics=metrics)
    counters = metrics.counter_values()
    assert counters["exec.tasks.completed"] == 1
    assert counters["exec.tasks.failed"] == 1
    assert "exec.tasks.retries" not in counters
    assert metrics.gauge_values()["exec.workers"] == 1
    assert metrics.gauge_values()["exec.last_batch_wall_s"] >= 0.0


def test_default_registry_receives_accounting():
    before = EXEC_METRICS.counter("exec.tasks.completed").value
    run_tasks([TaskSpec(fn=_square, args=(5,))])
    assert EXEC_METRICS.counter("exec.tasks.completed").value == before + 1


def test_empty_batch():
    assert run_tasks([]) == []


def test_cpu_bound_skips_pool_on_single_core(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    metrics = MetricsRegistry()
    outcomes = run_tasks(
        [TaskSpec(fn=_square, args=(x,), cpu_bound=True) for x in range(4)],
        config=ExecConfig(workers=2), metrics=metrics)
    assert [o.value for o in outcomes] == [0, 1, 4, 9]
    assert metrics.counter_values()["exec.pool_skips"] == 1
    assert all(o.worker_pid == os.getpid() for o in outcomes)


def test_cpu_bound_uses_pool_on_multicore(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    outcomes = run_tasks(
        [TaskSpec(fn=_pid, cpu_bound=True) for _ in range(4)],
        config=ExecConfig(workers=2))
    assert os.getpid() not in {o.worker_pid for o in outcomes}


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
        tasks = [TaskSpec(fn=_boom)]
        [outcome] = run_tasks(tasks, config=ExecConfig(workers=1),
                              metrics=metrics)
        assert not outcome.ok
        assert outcome.result_bytes == 0
        assert "exec.result_bytes" not in metrics.counter_values()


class TestForcePool:
    def test_force_pool_crosses_process_boundary(self):
        """cpu_bound tasks on a 1-CPU host would normally skip the pool;
        force_pool must still ship them to workers."""
        parent_pid_tasks = [TaskSpec(fn=_pid, cpu_bound=True)
                            for _ in range(2)]
        outcomes = run_tasks(
            parent_pid_tasks,
            config=ExecConfig(workers=2, force_pool=True),
            metrics=MetricsRegistry())
        assert all(outcome.worker_pid != os.getpid()
                   for outcome in outcomes)


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
                 TaskSpec(fn=_boom)]
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
