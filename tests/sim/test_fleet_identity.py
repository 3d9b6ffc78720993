"""Bit-identity and streaming contracts of the fleet fan-out.

The fleet's determinism promise: ``to_record()`` and
``telemetry_totals()`` are *bit-identical* — compared as exact floats
through JSON, no tolerance — between a serial run and a forced
two-worker pool, with and without a failing node.  Plus the streaming
contract: each node's telemetry counters are folded as it streams in,
and no retained node summary keeps them.
"""

from __future__ import annotations

import json

import pytest

from repro.exec import ExecConfig
from repro.host.scheduler import SchedulerConfig
from repro.sim.fleet import FleetConfig, FleetSimulator, RackConfig
from repro.sim.powerdown_sim import ComparisonSimulator, PowerDownSimConfig
from repro.workloads.azure import AzureTraceConfig


def _small_node() -> PowerDownSimConfig:
    return PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=4, duration_s=600.0),
        scheduler=SchedulerConfig(duration_s=600.0))


def _fingerprint(result) -> str:
    """Exact-float JSON of everything the identity contract covers."""
    return json.dumps({
        "record": result.to_record().to_dict(),
        "telemetry": result.telemetry_totals(),
    }, sort_keys=True)


def _run(num_nodes=5, exec_config=None, fail_seeds=(), config=None):
    config = config or FleetConfig(num_nodes=num_nodes, node=_small_node())
    simulator = FleetSimulator(config, exec_config)
    simulator.fail_seeds = tuple(fail_seeds)
    return simulator.run()


SERIAL = ExecConfig(workers=1)
# force_pool: the nodes are cpu_bound, so on a single-CPU host the
# heuristic would silently keep the "parallel" leg in-process and the
# identity assertion would stop testing the cross-process path.
PARALLEL = ExecConfig(workers=2, force_pool=True)


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        return _run(exec_config=SERIAL)

    @pytest.fixture(scope="class")
    def parallel(self):
        return _run(exec_config=PARALLEL)

    def test_forced_pool_matches(self, reference, parallel):
        assert _fingerprint(parallel) == _fingerprint(reference)

    def test_fleet_savings_exactly_equal(self, reference, parallel):
        assert parallel.fleet_savings == reference.fleet_savings  # bitwise


class TestNodeFailure:
    """Node 2 of 5 fails; the others survive and both modes report the
    identical result."""

    FAIL = (2,)

    @pytest.fixture(scope="class")
    def reference(self):
        return _run(exec_config=SERIAL, fail_seeds=self.FAIL)

    def test_failure_is_isolated(self, reference):
        assert [node.seed for node in reference.nodes] == [0, 1, 3, 4]
        assert [f.seed for f in reference.failures] == [2]
        assert "injected failure" in reference.failures[0].error

    def test_failed_node_counted_in_telemetry(self, reference):
        totals = reference.telemetry_totals()
        assert totals["fleet.nodes_failed"] == 1.0
        assert totals["fleet.nodes_reporting"] == 4.0

    def test_forced_pool_matches_with_failure(self, reference):
        parallel = _run(exec_config=PARALLEL, fail_seeds=self.FAIL)
        assert _fingerprint(parallel) == _fingerprint(reference)


class TestRackIdentity:
    def test_rack_report_identical_serial_vs_parallel(self):
        config = RackConfig(num_nodes=4, node=_small_node(),
                            hosts_per_rack=2)
        serial = _run(exec_config=SERIAL, config=config)
        parallel = _run(exec_config=PARALLEL, config=config)
        assert json.dumps(serial.rack_report(), sort_keys=True) == \
            json.dumps(parallel.rack_report(), sort_keys=True)


class TestStreaming:
    def test_counters_not_retained(self):
        simulator = FleetSimulator(
            FleetConfig(num_nodes=4, node=_small_node()), SERIAL)
        state = simulator.begin()
        while simulator.advance(state):
            assert all(node.counters is None for node in state.nodes)
        assert all(node.counters is None for node in state.nodes)

    def test_counters_folded_as_nodes_stream(self):
        simulator = FleetSimulator(
            FleetConfig(num_nodes=4, node=_small_node()), SERIAL)
        state = simulator.begin()
        while simulator.advance(state):
            # Each node is folded the round it lands, not at the end.
            assert state.counter_fold.reporting == len(state.nodes)
        assert state.counter_fold.reporting == 4
        totals = simulator.finish(state).telemetry_totals()
        node_counters = {name: value for name, value in totals.items()
                         if not name.startswith("fleet.")}
        assert node_counters
        assert any(value > 0 for value in node_counters.values())

    def test_one_task_per_node(self):
        counters = _run(num_nodes=4, exec_config=SERIAL) \
            .exec_telemetry["counters"]
        assert counters["exec.tasks.completed"] == 4
        assert counters["exec.result_bytes"] > 0


class TestSeedSpread:
    def test_node_is_the_comparison_at_its_seed(self):
        """Node i of the fleet is exactly powerdown_comparison at seed i,
        so the record's spread is Figure 12 over seeds."""
        node = _small_node()
        result = _run(num_nodes=2, exec_config=SERIAL)
        for index, summary in enumerate(result.nodes):
            pair = ComparisonSimulator(node.with_seed(index)).run()
            assert summary.energy_savings == pair.energy_savings
            assert summary.background_savings == pair.background_savings

    def test_record_carries_quartiles_and_paper_medians(self):
        record = _run(num_nodes=3, exec_config=SERIAL).to_record()
        for name in ("energy_savings", "background_savings",
                     "dtl_execution_factor"):
            q1, median, q3 = (record.metrics[f"{name}_{label}"]
                              for label in ("q1", "median", "q3"))
            assert q1 <= median <= q3
            assert f"{name}_median" in record.paper
        assert record.metrics["energy_savings_median"] == \
            sorted(record.metrics["per_node"])[1]
