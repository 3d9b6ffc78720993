"""One owner per knob.

The DTL is configured once, by :class:`DtlConfig`: the power hosts read
their knobs from it, a policy is built from its registry name alone,
and the chaos soak and the server run the same device config.  The
settable fields of those configs, and of the fleet's, are pinned here,
so a knob added back (or declared a second time) shows up in review as
an edit to this list.
"""

import dataclasses

import pytest

import repro.policies
from repro.core.config import DtlConfig, small_dtl_config
from repro.faults import ChaosSoakConfig
from repro.server import ServerConfig
from repro.sim.fleet import FleetConfig, RackConfig

PINNED_FIELDS = {
    DtlConfig: (
        "geometry", "au_bytes", "max_hosts", "cache", "enable_power_down",
        "enable_self_refresh", "group_granularity", "min_active_groups",
        "window_ns", "profiling_threshold_ns", "tsp_scan_limit",
        "sr_victim_granularity", "background_migration", "sr_planning",
        "policy"),
    ChaosSoakConfig: (
        "seed", "levels", "batches_per_phase", "batch_size",
        "write_fraction", "dtl"),
    ServerConfig: (
        "host", "port", "num_shards", "dtl", "admission", "chaos",
        "telemetry_path", "telemetry_interval_s", "checkpoint_path",
        "seed"),
    FleetConfig: ("num_nodes", "node", "base_seed", "tco"),
    RackConfig: ("num_nodes", "node", "base_seed", "tco", "hosts_per_rack",
                 "pool"),
}


def test_policies_export_no_policy_config():
    assert not hasattr(repro.policies, "PolicyConfig")
    assert "PolicyConfig" not in repro.policies.__all__


def test_chaos_soak_and_server_run_one_device_config():
    assert ChaosSoakConfig().dtl == ServerConfig().dtl == small_dtl_config()


@pytest.mark.parametrize("config_type", list(PINNED_FIELDS),
                         ids=lambda config_type: config_type.__name__)
def test_settable_fields_are_pinned(config_type):
    fields = tuple(field.name for field in dataclasses.fields(config_type))
    assert fields == PINNED_FIELDS[config_type]
