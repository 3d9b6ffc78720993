"""The unified experiment registry and its executor integration.

Covers the registry round-trip on every spec's tiny config, the
serial-vs-parallel determinism guarantee for the fan-out simulators,
the ``SeededConfig`` helpers, and the ``telemetry_totals``
missing/failed accounting.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.checkpoint import FanOut, SteppedExperiment, Stepper
from repro.exec import ExecConfig
from repro.host.scheduler import SchedulerConfig
from repro.sim.experiments import (EXPERIMENTS, experiment_task, get_spec,
                                   make_experiment, run_experiment,
                                   run_experiments)
from repro.sim.fleet import (CounterFold, FleetConfig, FleetResult,
                             FleetSimulator, NodeFailure)
from repro.sim.powerdown_sim import PowerDownSimConfig
from repro.sim.rank_sweep import RankSweepExperiment, TraceRankSweepConfig
from repro.sim.selfrefresh_sim import SelfRefreshSimConfig
from repro.workloads.azure import AzureTraceConfig

EXPECTED_NAMES = {"powerdown", "powerdown_comparison", "fleet",
                  "rank_sweep", "selfrefresh", "ramzzz_comparison",
                  "tournament", "fig1", "fig2", "fig5", "tables",
                  "validate"}


def _small_node() -> PowerDownSimConfig:
    return PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=4, duration_s=600.0),
        scheduler=SchedulerConfig(duration_s=600.0))


def _record_json(result) -> str:
    return json.dumps(result.to_record().to_dict(), sort_keys=True)


def test_registry_names():
    assert EXPECTED_NAMES <= set(EXPERIMENTS)


def test_get_spec_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="rank_sweep"):
        get_spec("no-such-experiment")


def test_specs_conform_to_protocol():
    for spec in EXPERIMENTS.values():
        experiment = make_experiment(spec.name, spec.tiny_config())
        assert isinstance(experiment, Stepper)
        assert experiment.name == spec.name
        assert isinstance(experiment.config, spec.config_type)


def test_run_is_the_shared_drive_except_for_the_fan_outs():
    experiments = {name: make_experiment(name,
                                         EXPERIMENTS[name].tiny_config())
                   for name in sorted(EXPERIMENTS)}
    own_run = {name for name, experiment in experiments.items()
               if type(experiment).run is not SteppedExperiment.run}
    assert own_run == {"fleet", "rank_sweep", "tournament"}
    # Two run bodies in the registry: the stepped drive and the fan-out's.
    assert {type(experiment).run for experiment in experiments.values()} \
        == {SteppedExperiment.run, FanOut.run}
    fan_outs = {name for name, experiment in experiments.items()
                if isinstance(experiment, FanOut)}
    assert fan_outs == {"fleet", "rank_sweep", "tournament"}
    # A fan-out supplies begin / fold / finish and nothing of the drive.
    for name in fan_outs:
        supplied = set(vars(type(experiments[name])))
        assert {"begin", "fold", "finish"} <= supplied
        assert not {"advance", "run", "_run_pending"} & supplied


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_registry_round_trip(name):
    """Every registered experiment runs on its tiny config and records."""
    spec = get_spec(name)
    result = run_experiment(name, spec.tiny_config())
    record = result.to_record()
    assert record.experiment
    assert record.metrics
    json.dumps(record.to_dict())  # records must be JSON-serialisable


def test_run_experiments_batch_and_cache():
    spec = get_spec("rank_sweep")
    config = spec.tiny_config()
    from repro.exec import ResultCache
    cache = ResultCache()
    first = run_experiments([("rank_sweep", config)], cache=cache)
    second = run_experiments([("rank_sweep", config)], cache=cache)
    assert first[0].ok and second[0].ok
    assert not first[0].from_cache and second[0].from_cache
    assert _record_json(first[0].value) == _record_json(second[0].value)


def test_experiment_task_rejects_unknown_name():
    with pytest.raises(KeyError):
        experiment_task("nope", None)


def test_fleet_serial_parallel_bit_identical():
    # force_pool: on a single-CPU host the cpu-bound heuristic would
    # otherwise keep the "parallel" run in-process, and the test would
    # silently stop exercising the cross-process path.
    config = FleetConfig(num_nodes=2, node=_small_node())
    serial = FleetSimulator(config, ExecConfig(workers=1)).run()
    parallel = FleetSimulator(
        config, ExecConfig(workers=2, force_pool=True)).run()
    assert _record_json(serial) == _record_json(parallel)
    assert serial.telemetry_totals() == parallel.telemetry_totals()


def test_lone_request_hands_the_experiment_its_exec_config(monkeypatch):
    # `repro fleet --workers 2` reaches the fleet's own node fan-out
    # through the registry; a batch keeps the workers for its requests.
    monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
    config = FleetConfig(num_nodes=2, node=_small_node())
    pooled = ExecConfig(workers=2, force_pool=True)
    lone, = run_experiments([("fleet", config)], exec_config=pooled)
    assert lone.value.exec_telemetry["gauges"]["exec.workers"] == 2
    serial = FleetSimulator(config, ExecConfig(workers=1)).run()
    assert _record_json(lone.value) == _record_json(serial)
    other = FleetConfig(num_nodes=1, node=_small_node())
    for outcome in run_experiments([("fleet", config), ("fleet", other)],
                                   exec_config=ExecConfig(workers=2)):
        assert outcome.value.exec_telemetry["gauges"]["exec.workers"] == 1


def test_rank_sweep_serial_parallel_bit_identical():
    config = TraceRankSweepConfig(num_accesses=2_000, rank_counts=(8, 2))
    serial = RankSweepExperiment(config, ExecConfig(workers=1)).run()
    parallel = RankSweepExperiment(config, ExecConfig(workers=2)).run()
    assert _record_json(serial) == _record_json(parallel)


def test_with_seed_and_replace():
    config = PowerDownSimConfig()
    reseeded = config.with_seed(7)
    assert reseeded.seed == 7
    assert config.seed == 0  # original untouched (frozen dataclass)
    assert dataclasses.replace(reseeded, seed=0) == config
    tweaked = config.replace(spare_migration_bandwidth_gbs=9.0)
    assert tweaked.spare_migration_bandwidth_gbs == 9.0
    assert tweaked.azure == config.azure  # every other field carried over
    for config_type in (SelfRefreshSimConfig, TraceRankSweepConfig):
        assert config_type().with_seed(9).seed == 9


def test_node_configs_derive_seeds():
    result = FleetSimulator(FleetConfig(num_nodes=3, node=_small_node(),
                                        base_seed=10)).run()
    assert [node.seed for node in result.nodes] == [10, 11, 12]


def test_telemetry_totals_distinguishes_missing_from_failed():
    fold = CounterFold()
    for counters in ({"smc.l1.hits": 5.0}, {"smc.l1.hits": 7.0}, None):
        fold.fold(counters)
    result = FleetResult(
        config=FleetConfig(num_nodes=4, node=_small_node()),
        nodes=[SimpleNamespace(seed=seed) for seed in range(3)],
        failures=[NodeFailure(seed=3, error="ValueError: boom")],
        counter_fold=fold)
    totals = result.telemetry_totals()
    assert totals["smc.l1.hits"] == 12.0
    assert totals["fleet.nodes_reporting"] == 2.0
    assert totals["fleet.nodes_missing_telemetry"] == 1.0
    assert totals["fleet.nodes_failed"] == 1.0


def test_telemetry_totals_empty_fleet_reports_zeroes():
    result = FleetResult(config=FleetConfig(num_nodes=0), nodes=[])
    assert result.telemetry_totals() == {
        "fleet.nodes_reporting": 0.0,
        "fleet.nodes_missing_telemetry": 0.0,
        "fleet.nodes_failed": 0.0,
    }
