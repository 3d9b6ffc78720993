"""One owner per knob, and no knob without a setter.

The DTL is configured once, by :class:`DtlConfig`: the power hosts read
their knobs from it, a policy is built from its registry name alone,
and the chaos soak and the server run the same device config.  Every
``@dataclass`` named ``*Config`` under ``src/`` is found by parsing the
source, and its declared fields are pinned here, so a knob added back
(or declared a second time) shows up in review as an edit to this list.

A field is a knob only if something sets it: the lint below fails on a
field that nothing in ``src/``, ``bench/``, ``benchmarks/``,
``examples/`` or ``tests/`` ever sets by name.  A value nobody sets is a
constant; declare it as one.
"""

import ast
import dataclasses
import functools
import importlib
from pathlib import Path

import pytest

import repro.policies
from repro.core.config import small_dtl_config
from repro.faults import ChaosSoakConfig
from repro.server import ServerConfig

ROOT = Path(__file__).resolve().parents[1]

#: Where a config field may find its setter.
SETTER_FOLDERS = ("src", "bench", "benchmarks", "examples", "tests")

PINNED_FIELDS = {
    "RamzzzConfig": ("demote_threshold", "victim_granularity"),
    "DtlConfig": (
        "geometry", "au_bytes", "max_hosts", "cache", "enable_power_down",
        "enable_self_refresh", "group_granularity", "min_active_groups",
        "window_ns", "profiling_threshold_ns", "tsp_scan_limit",
        "sr_victim_granularity", "background_migration", "sr_planning",
        "policy"),
    "SegmentCacheConfig": ("l1_entries", "l2_entries", "l2_ways"),
    "CxlLinkConfig": ("base_latency_ns",),
    "PoolContentionConfig": ("bandwidth_gbs", "service_ns",
                             "max_utilization"),
    "ExecConfig": ("workers", "force_pool"),
    "ChaosSoakConfig": ("seed", "levels", "batches_per_phase", "batch_size",
                        "dtl"),
    "CacheLevelConfig": ("name", "size_bytes", "ways"),
    "SchedulerConfig": ("vcpus", "memory_bytes", "duration_s"),
    "AdmissionConfig": ("max_tenants", "quota_bytes", "rate_per_s", "burst",
                        "batch_cost_divisor", "queue_depth"),
    "LoadgenConfig": ("tenants", "requests_per_tenant", "batch",
                      "vms_per_tenant", "churn_every", "seed",
                      "tenant_prefix"),
    "ServerConfig": (
        "host", "port", "num_shards", "dtl", "admission", "chaos",
        "telemetry_path", "telemetry_interval_s", "checkpoint_path",
        "seed"),
    "ServerSoakConfig": (
        "seed", "tenants", "requests_per_tenant", "batch", "vms_per_tenant",
        "num_shards", "monitor_scans", "script_tenants", "script_requests",
        "script_batch"),
    "AnalyticConfig": ("seed",),
    "FleetConfig": ("num_nodes", "node", "base_seed", "tco"),
    "RackConfig": ("hosts_per_rack",),
    "PowerDownSimConfig": (
        "geometry", "scheduler", "azure", "enable_power_down",
        "group_granularity", "spare_migration_bandwidth_gbs", "policy",
        "seed"),
    "TraceRankSweepConfig": ("workload", "num_accesses", "rank_counts",
                             "seed"),
    "SelfRefreshSimConfig": (
        "geometry", "allocated_bytes", "workloads", "aggregate_bandwidth_gbs",
        "step_ns", "window_ns", "duration_s", "au_bytes",
        "group_granularity", "drift", "sr_planning", "placement", "policy",
        "seed"),
    "TournamentConfig": ("policies", "workloads", "duration_s", "seed"),
    "AzureTraceConfig": ("num_vms", "duration_s", "vcpu_values",
                         "vcpu_probs"),
    "DriftConfig": ("period_s", "fraction"),
}

#: ``"Class.field"`` -> why the field stays settable although nothing
#: sets it.
NEVER_SET: dict[str, str] = {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        if getattr(target, "attr", getattr(target, "id", None)) \
                == "dataclass":
            return True
    return False


def discover_configs(root: Path = ROOT) -> dict[str, tuple[str, tuple]]:
    """Every ``@dataclass`` named ``*Config`` under ``src/``: class name
    -> (module, the fields the class itself declares)."""
    found = {}
    for path in sorted((root / "src").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config") and _is_dataclass(node)):
                found[node.name] = (module, tuple(
                    statement.target.id for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in ast.unparse(statement.annotation)))
    return found


def unset_fields(root: Path = ROOT) -> list[str]:
    """``Class.field`` for every declared config field nothing sets.

    A field is set where its name is a keyword of any call (the
    constructor, ``replace``, a ``**changes`` forwarder), a string key
    of a dict literal, or where a constructor call passes it by
    position.
    """
    configs = discover_configs(root)
    named: set[str] = set()
    positional: dict[str, int] = {}
    for folder in SETTER_FOLDERS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    named.update(keyword.arg for keyword in node.keywords
                                 if keyword.arg)
                    name = getattr(node.func, "attr",
                                   getattr(node.func, "id", None))
                    if name in configs:
                        count = sum(not isinstance(arg, ast.Starred)
                                    for arg in node.args)
                        positional[name] = max(positional.get(name, 0),
                                               count)
                elif isinstance(node, ast.Dict):
                    named.update(key.value for key in node.keys
                                 if isinstance(key, ast.Constant)
                                 and isinstance(key.value, str))
    unset = []
    for name, (module, fields) in configs.items():
        config_type = getattr(importlib.import_module(module), name)
        in_order = [field.name for field in dataclasses.fields(config_type)]
        by_position = set(in_order[:positional.get(name, 0)])
        unset.extend(f"{name}.{field}" for field in fields
                     if field not in named and field not in by_position)
    return sorted(unset)


@functools.cache
def discovered() -> dict[str, tuple[str, tuple]]:
    return discover_configs()


def test_policies_export_no_policy_config():
    assert not hasattr(repro.policies, "PolicyConfig")
    assert "PolicyConfig" not in repro.policies.__all__


def test_chaos_soak_and_server_run_one_device_config():
    assert ChaosSoakConfig().dtl == ServerConfig().dtl == small_dtl_config()


def test_every_config_class_is_pinned():
    assert sorted(discovered()) == sorted(PINNED_FIELDS)


@pytest.mark.parametrize("name", sorted(PINNED_FIELDS))
def test_settable_fields_are_pinned(name):
    module, fields = discovered()[name]
    assert fields == PINNED_FIELDS[name]
    # The source scan sees what the dataclass really declares.
    config_type = getattr(importlib.import_module(module), name)
    declared = [field.name for field in dataclasses.fields(config_type)]
    assert set(fields) <= set(declared)


def test_every_field_has_a_setter():
    missing = sorted(set(unset_fields()) - NEVER_SET.keys())
    assert not missing, f"nothing sets these; make them constants: {missing}"


def test_never_set_allowlist_is_current():
    stale = sorted(NEVER_SET.keys() - set(unset_fields()))
    assert not stale, f"set somewhere now (or gone): {stale}"
