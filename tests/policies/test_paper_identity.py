"""PaperPolicy is the seed behaviour, bit for bit.

The policy extraction is a refactor of the paper's hard-wired
decisions; these goldens pin the exact pre-refactor experiment records
(float-for-float, ``==`` not ``approx``) so any behavioural drift in
the default policy fails loudly.  The identity tests then drive every
*registered* policy through the scalar and batch datapaths — migrations
in flight, self-refresh phase transitions — because the batch event
screen must stay policy-independent, and the default chaos soak
proves each of them survives fault injection with invariants intact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import small_dtl_config
from repro.faults.chaos import ChaosSoakConfig
from repro.policies import available_policies
from repro.sim.experiments import get_spec, run_experiment

from tests.core.test_batch_identity import (assert_results_match,
                                            assert_state_match, build_pair,
                                            random_trace, run_scalar,
                                            small_config)

#: The seed repo's records for the registry tiny configs, captured
#: before the policy extraction.  Exact equality is the contract.
POWERDOWN_COMPARISON_GOLDEN = {
    "background_savings": 0.1792307692307692,
    "baseline_total_energy_rsu_s": 37860.4224,
    "dtl_active_energy_rsu_s": 420.42240000000004,
    "dtl_background_energy_rsu_s": 30729.600000000002,
    "dtl_execution_time_factor": 1.0164568963388119,
    "dtl_intervals": 3,
    "dtl_mean_active_ranks_per_channel": 6.0,
    "dtl_migrated_bytes": 0,
    "dtl_migration_energy_rsu_s": 0.0,
    "dtl_migration_time_s": 0.0,
    "dtl_power_transitions": 3,
    "dtl_segments_migrated": 0,
    "dtl_smc_l1_hit_ratio": 0.0,
    "dtl_total_energy_rsu_s": 31662.65508958847,
    "energy_savings": 0.16370042692422615,
    "power_savings": 0.17724049481286297,
}

SELFREFRESH_GOLDEN = {
    "active_ranks_per_channel": 6,
    "baseline_power_rsu": 34.769,
    "ever_stable": True,
    # New observability field; 5 SR exits paid the 500 ns penalty on
    # the access path in the seed run too — it just went unreported.
    "exit_penalty_ns": 2500.0,
    "mean_savings": 0.030705966349334136,
    "migrated_bytes": 6499074048,
    "sr_entries": 8,
    "sr_exits": 10,
    "stable_savings": 0.12736487790848164,
    "warmup_s": 1.25,
}


class TestSeedGoldens:
    def test_powerdown_comparison_record_is_bit_identical(self):
        spec = get_spec("powerdown_comparison")
        record = run_experiment(spec.name, spec.tiny_config()).to_record()
        assert record.metrics == POWERDOWN_COMPARISON_GOLDEN

    def test_selfrefresh_record_is_bit_identical(self):
        spec = get_spec("selfrefresh")
        record = run_experiment(spec.name, spec.tiny_config()).to_record()
        assert record.metrics == SELFREFRESH_GOLDEN


ALL_POLICIES = sorted(available_policies())


class TestScalarBatchIdentityPerPolicy:
    """The batch event screen reads live host state, never policy
    internals — so scalar/batch identity must hold for *every*
    registered policy, not just the default."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_identity_plain_trace(self, policy):
        config = small_config(policy=policy)
        scalar, batch = build_pair(config)
        hpas, writes = random_trace(config, 600, seed=0)
        scalar_results = run_scalar(scalar, hpas, writes)
        batch_result = batch.access_batch(0, hpas, writes)
        assert_results_match(scalar_results, batch_result)
        assert_state_match(scalar, batch)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_identity_with_migrations_in_flight(self, policy):
        config = small_config(policy=policy)
        scalar, batch = build_pair(config)
        for controller in (scalar, batch):
            live = controller.tables.live_dsns()
            free = [dsn
                    for dsn in range(controller.geometry.total_segments)
                    if not controller.tables.is_dsn_live(dsn)]
            submitted = 0
            for dsn in live:
                if submitted >= 3:
                    break
                channel = controller.device_layout.channel_of_dsn(dsn)
                partner = next(
                    (f for f in free
                     if controller.device_layout.channel_of_dsn(f)
                     == channel), None)
                if partner is None:
                    continue
                free.remove(partner)
                controller.migration.submit(
                    controller.tables.hsn_of_dsn(dsn), dsn, partner)
                submitted += 1
            assert submitted == 3
            controller.migration.step_channel(0, lines=5)
        hpas, writes = random_trace(config, 500, seed=11)
        scalar_results = run_scalar(scalar, hpas, writes)
        batch_result = batch.access_batch(0, hpas, writes)
        assert_results_match(scalar_results, batch_result)
        assert_state_match(scalar, batch)
        assert scalar.migration.stats.aborts == batch.migration.stats.aborts

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_identity_across_self_refresh_phases(self, policy):
        config = small_config(policy=policy, window_ns=1000.0,
                              profiling_threshold_ns=5000.0)
        scalar, batch = build_pair(config)
        hpas, writes = random_trace(config, 400, seed=3)
        for now_ns in (0.0, 2000.0, 10_000.0, 20_000.0):
            for controller in (scalar, batch):
                controller.end_window()
                controller.tick(now_ns)
            scalar_results = run_scalar(scalar, hpas, writes,
                                        now_ns=now_ns)
            batch_result = batch.access_batch(0, hpas, writes,
                                              now_ns=now_ns)
            assert_results_match(scalar_results, batch_result)
            assert_state_match(scalar, batch)
        phases = {scalar.self_refresh.phase(c).value
                  for c in range(config.geometry.channels)}
        assert phases != {"idle"}, "trace never left IDLE; tighten timers"


class TestChaosWithNonDefaultPolicy:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_default_chaos_soak_is_ok(self, policy):
        """Fault injection and consistency audits hold whichever
        registered policy the armed run decides through, at the soak's
        default size."""
        result = run_experiment(
            "chaos", ChaosSoakConfig(dtl=small_dtl_config(policy)))
        report = result.report
        assert report.injected_total > 0
        assert not report.checker_violations
        assert result.ok
        assert result.config.dtl.policy == policy
