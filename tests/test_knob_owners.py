"""One owner per knob, and no knob without a setter.

The DTL is configured once, by :class:`DtlConfig`: the power hosts read
their knobs from it, a policy is built from its registry name alone,
and the chaos soak and the server run the same device config.  Every
``@dataclass`` named ``*Config`` under ``src/`` is found by parsing the
source, and its declared fields are pinned here, so a knob added back
(or declared a second time) shows up in review as an edit to this list.

A field is a knob only if something sets it: the lint below fails on a
field that nothing in ``src/``, ``bench/``, ``benchmarks/``,
``examples/`` or ``tests/`` sets through a call that provably reaches
its own class (:class:`_Setters`), not merely a keyword of the same
name.  A value nobody sets is a constant; declare it as one.
"""

import ast
import dataclasses
import functools
import importlib
import re
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
        "geometry", "au_bytes", "cache", "enable_power_down",
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
        "monitor_scans", "script_tenants", "script_requests", "script_batch"),
    "AnalyticConfig": ("seed",),
    "FleetConfig": ("num_nodes", "node", "base_seed", "tco"),
    "RackConfig": ("hosts_per_rack",),
    "PowerDownSimConfig": (
        "geometry", "scheduler", "azure", "enable_power_down",
        "group_granularity", "spare_migration_bandwidth_gbs", "seed"),
    "TraceRankSweepConfig": ("workload", "num_accesses", "rank_counts",
                             "seed"),
    "SelfRefreshSimConfig": (
        "geometry", "allocated_bytes", "workloads", "aggregate_bandwidth_gbs",
        "step_ns", "duration_s", "au_bytes",
        "group_granularity", "drift", "sr_planning", "placement", "policy",
        "seed"),
    "TournamentConfig": ("policies", "duration_s", "seed"),
    "AzureTraceConfig": ("num_vms", "duration_s", "vcpu_values",
                         "vcpu_probs"),
    "DriftConfig": ("period_s", "fraction"),
}

#: ``"Class.field"`` -> why the field stays settable although nothing
#: the lint can resolve sets it.
NEVER_SET: dict[str, str] = {
    "AnalyticConfig.seed":
        "set by every command's --seed through SeededConfig.with_seed on "
        "whichever config the command fronts (cli._flag_configs); the "
        "receiver's class is only known at run time",
    "ServerConfig.dtl":
        "the server's device config, one with ChaosSoakConfig.dtl "
        "(test_chaos_soak_and_server_run_one_device_config); "
        "bench/wl_serve.py reads config.dtl.geometry",
}


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


def _annotated(annotation: ast.expr | None, configs) -> str | None:
    """The config class an annotation names (``X``, ``X | None``)."""
    if annotation is None:
        return None
    names = [name for name in configs
             if re.search(rf"\b{name}\b", ast.unparse(annotation))]
    return names[0] if len(names) == 1 else None


class _Setters:
    """Which config fields the scanned sources set, callee resolved.

    A keyword (or a positional argument) sets a field of class ``C``
    only where the call provably reaches ``C``: ``C(...)`` itself,
    ``dataclasses.replace(x, ...)`` or ``x.replace(...)`` on an ``x``
    whose type is ``C``, or a call of a ``**changes`` forwarder whose
    ``**`` argument reaches one of those.  An expression's type comes
    from a ``C(...)`` call, a function's return annotation, a parameter
    annotation, an assignment in the same function or module, or a
    config field annotated ``C``.  Anything else resolves to nothing.
    """

    def __init__(self, configs: dict[str, tuple[str, tuple]],
                 trees: list[ast.Module]):
        self.configs = configs
        self.field_types = {}
        for name, (module, _) in configs.items():
            config_type = getattr(importlib.import_module(module), name)
            self.field_types[name] = {
                field.name: _annotated(ast.parse(str(field.type),
                                                 mode="eval").body, configs)
                for field in dataclasses.fields(config_type)}
        self.trees = trees
        self.returns: dict[str, str] = {}
        self.forwards: dict[str, str] = {}
        self.named: dict[str, set[str]] = {name: set() for name in configs}
        self.positional: dict[str, int] = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    kind = _annotated(node.returns, configs)
                    if kind:
                        self.returns[node.name] = kind
        # Forwarders reach further forwarders: iterate to a fixpoint.
        while True:
            before = dict(self.forwards)
            self._scan(record=False)
            if self.forwards == before:
                break
        self._scan(record=True)

    def _scan(self, record: bool) -> None:
        for tree in self.trees:
            self._walk(tree, [tree], record)

    def _walk(self, node: ast.AST, scopes: list, record: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                self._walk(child, scopes + [child], record)
                continue
            if isinstance(child, ast.Call):
                self._call(child, scopes, record)
            self._walk(child, scopes, record)

    # -- typing ------------------------------------------------------------

    def type_of(self, node: ast.expr, scopes: list,
                seen: frozenset = frozenset()) -> str | None:
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in self.configs:
                return name
            if name in ("replace", "with_seed") and isinstance(
                    node.func, ast.Attribute):
                return self.type_of(node.func.value, scopes, seen)
            return self.returns.get(name) or self.forwards.get(name)
        if isinstance(node, ast.BoolOp):
            kinds = {self.type_of(value, scopes, seen)
                     for value in node.values}
            kinds.discard(None)
            return kinds.pop() if len(kinds) == 1 else None
        if isinstance(node, (ast.Name, ast.Attribute)):
            key = ast.unparse(node)
            if key in seen:
                return None
            seen = seen | {key}
            if isinstance(node, ast.Name):
                return self._bound(node.id, scopes, seen)
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self._attribute(key, scopes, seen)
            owner = self.type_of(node.value, scopes, seen)
            return (self.field_types[owner].get(node.attr)
                    if owner is not None else None)
        return None

    def _bound(self, name: str, scopes: list, seen: frozenset) -> str | None:
        """The type ``name`` is bound to in the innermost function (or
        the module) that binds it."""
        for depth in range(len(scopes) - 1, -1, -1):
            scope = scopes[depth]
            if isinstance(scope, ast.ClassDef):
                continue
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in scope.args.args + scope.args.kwonlyargs:
                    if arg.arg == name:
                        return _annotated(arg.annotation, self.configs)
            kind = self._assigned(name, scope, scopes[:depth + 1], seen)
            if kind:
                return kind
        return None

    def _attribute(self, key: str, scopes: list,
                   seen: frozenset) -> str | None:
        """The type a method of the enclosing class assigns to
        ``self.<attr>``."""
        for depth in range(len(scopes) - 1, -1, -1):
            if isinstance(scopes[depth], ast.ClassDef):
                for method in scopes[depth].body:
                    if isinstance(method, ast.FunctionDef):
                        kind = self._assigned(
                            key, method, scopes[:depth + 1] + [method], seen)
                        if kind:
                            return kind
                return None
        return None

    def _assigned(self, target: str, scope: ast.AST, scopes: list,
                  seen: frozenset) -> str | None:
        for node in ast.walk(scope):
            if isinstance(node, ast.AnnAssign) \
                    and ast.unparse(node.target) == target:
                kind = _annotated(node.annotation, self.configs)
                if kind:
                    return kind
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value \
                    and any(ast.unparse(each) == target for each in (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target])):
                kind = self.type_of(node.value, scopes, seen)
                if kind:
                    return kind
        return None

    # -- calls -------------------------------------------------------------

    def _target(self, call: ast.Call, scopes: list) -> str | None:
        func = call.func
        name = getattr(func, "attr", getattr(func, "id", None))
        if name in self.configs:
            return name
        if name == "replace":
            if isinstance(func, ast.Attribute) and not (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "dataclasses"):
                return self.type_of(func.value, scopes)
            return self.type_of(call.args[0], scopes) if call.args else None
        return self.forwards.get(name)

    def _call(self, call: ast.Call, scopes: list, record: bool) -> None:
        target = self._target(call, scopes)
        if target is None:
            return
        function = scopes[-1] if isinstance(
            scopes[-1], (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        carried = self._carriers(function) if function else set()
        for keyword in call.keywords:
            if keyword.arg is None:
                if isinstance(keyword.value, ast.Name) \
                        and keyword.value.id in carried:
                    self.forwards[function.name] = target
                elif record:
                    self.named[target].update(self._keys(keyword.value,
                                                         function))
            elif record:
                self.named[target].add(keyword.arg)
        if record and getattr(call.func, "id",
                              getattr(call.func, "attr", None)) == target:
            count = sum(not isinstance(arg, ast.Starred) for arg in call.args)
            self.positional[target] = max(self.positional.get(target, 0),
                                          count)

    @staticmethod
    def _carriers(function) -> set[str]:
        """Names in ``function`` that hold its ``**`` parameter: the
        parameter itself and any dict it is merged into."""
        if function.args.kwarg is None:
            return set()
        kwarg = function.args.kwarg.arg
        carried = {kwarg}
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "update"
                    and isinstance(node.func.value, ast.Name)
                    and any(isinstance(arg, ast.Name) and arg.id == kwarg
                            for arg in node.args)):
                carried.add(node.func.value.id)
        return carried

    @staticmethod
    def _keys(value: ast.expr, function) -> set[str]:
        """String keys of the dict a ``**value`` argument unpacks."""
        if isinstance(value, ast.Name) and function is not None:
            for node in ast.walk(function):
                if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Name)
                        and target.id == value.id
                        for target in node.targets):
                    value = node.value
        if isinstance(value, ast.Call) and getattr(value.func, "id",
                                                   None) == "dict":
            return {keyword.arg for keyword in value.keywords
                    if keyword.arg}
        if isinstance(value, ast.Dict):
            return {key.value for key in value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)}
        return set()


def unset_fields(root: Path = ROOT) -> list[str]:
    """``Class.field`` for every declared config field nothing sets
    (see :class:`_Setters` for what counts as setting one)."""
    configs = discover_configs(root)
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for folder in SETTER_FOLDERS
             for path in sorted((root / folder).rglob("*.py"))]
    setters = _Setters(configs, trees)
    unset = []
    for name, (module, fields) in configs.items():
        config_type = getattr(importlib.import_module(module), name)
        in_order = [field.name for field in dataclasses.fields(config_type)]
        by_position = set(in_order[:setters.positional.get(name, 0)])
        unset.extend(f"{name}.{field}" for field in fields
                     if field not in setters.named[name]
                     and field not in by_position)
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
