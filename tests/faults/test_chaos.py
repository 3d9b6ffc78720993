"""Chaos soak experiment: escalating faults with consistency audits."""

import pytest

from repro.core.config import small_dtl_config
from repro.exec.hashing import stable_hash
from repro.faults import ChaosSoakConfig, ChaosSoakExperiment
from repro.sim import EXPERIMENTS

#: The default soak's fault schedule per hook point.  Under
#: ``rank_aware`` the ``power.mpsm_exit`` hook fires twice more.
DEFAULT_INJECTED = {"cxl.access": 621, "dram.access": 283,
                    "migration.copy": 12, "power.mpsm_exit": 3,
                    "smc.lookup": 133, "sr.exit": 1}
#: ``stable_hash`` of the default soak's end snapshot, re-pinned when
#: the clock became integer nanoseconds: residency seconds lost their
#: round-trip ULPs, and two exact 100 ns idle gaps (100.00000000005664
#: through seconds) moved from the ``le_200`` bucket to ``le_100``.
PAPER_SNAPSHOT = \
    "d036716a4699eaaa5ab8a4145afb3e7bf96ddf76a0231d0c442b060ed7bc3faf"
RANK_AWARE_SNAPSHOT = \
    "eba6afea8fa169388de177752fa1d505e1ebe7ddc6fc82bf46d15e451fe9734e"
DEFAULT_SOAK = {
    "adaptive": (1053, DEFAULT_INJECTED, PAPER_SNAPSHOT),
    "dream": (1053, DEFAULT_INJECTED, PAPER_SNAPSHOT),
    "paper": (1053, DEFAULT_INJECTED, PAPER_SNAPSHOT),
    "rank_aware": (1055, {**DEFAULT_INJECTED, "power.mpsm_exit": 5},
                   RANK_AWARE_SNAPSHOT),
}


def tiny_config(seed: int = 0) -> ChaosSoakConfig:
    return ChaosSoakConfig(seed=seed, levels=2, batches_per_phase=3,
                           batch_size=24)


class TestChaosSoak:
    def test_soak_is_clean_and_report_is_non_empty(self):
        result = ChaosSoakExperiment(tiny_config()).run()
        assert result.ok
        report = result.report
        assert report.checker_violations == []
        assert report.checker_audits > 0
        assert report.injected_total > 0
        # Every escalation level contributes a sub-report.
        assert len(result.level_reports) == 2
        assert result.snapshot  # telemetry snapshot captured

    def test_quick_soak_reports_what_the_scalar_replay_reported(self):
        """``repro chaos --quick``: same faults on the same accesses.

        Golden from the last commit whose ``access_batch`` replayed an
        armed batch element-wise; the vectorised schedule must land
        every fire, audit and counter in the same place.
        """
        config = ChaosSoakConfig(seed=0).replace(
            levels=2, batches_per_phase=4, batch_size=32)
        report = ChaosSoakExperiment(config).run().report
        assert report.injected == {
            "cxl.access": 144, "dram.access": 67, "migration.copy": 4,
            "power.mpsm_exit": 3, "smc.lookup": 32, "sr.exit": 1}
        assert (report.detected, report.recovered) == (251, 240)
        assert (report.ecc_corrected, report.ecc_uncorrected) == (56, 11)
        assert report.cxl_retry_counts == {2: 99}
        assert report.power_exit_failures == 2
        # Includes the shard's every-AUDIT_EVERY-applies audit, once per
        # level: the golden predates it by those two audits.
        assert report.checker_audits == 22
        assert report.checker_violations == []

    def test_base_plan_covers_every_hook_family(self):
        from repro.faults.plan import (CxlLinkFault, EccFault,
                                       MigrationAbortFault, PowerExitFault,
                                       SmcCorruptionFault)

        specs = tiny_config().base_plan().specs
        types = {type(spec) for spec in specs}
        assert types == {CxlLinkFault, EccFault, MigrationAbortFault,
                         PowerExitFault, SmcCorruptionFault}
        targets = {spec.target for spec in specs
                   if isinstance(spec, PowerExitFault)}
        assert targets == {"mpsm", "sr"}

    def test_registered_in_experiment_registry(self):
        spec = EXPERIMENTS["chaos"]
        assert spec.config_type is ChaosSoakConfig
        assert isinstance(spec.factory(spec.tiny_config()),
                          ChaosSoakExperiment)

    def test_to_record_shapes_paper_metrics(self):
        result = ChaosSoakExperiment(tiny_config(seed=3)).run()
        record = result.to_record()
        assert record.experiment == "chaos"
        assert record.metrics["checker_violations"] == 0
        assert record.metrics["faults_injected"] > 0
        assert record.paper["checker_violations"] == 0


@pytest.mark.parametrize("policy", sorted(DEFAULT_SOAK))
def test_default_soak_on_the_shard_keeps_its_schedule(policy):
    """The soak drives a ``ControllerShard``: every fault still fires
    where it did and the run ends in the same state.  Per level, the
    shard's every-64-applies audit adds one audit to levels 1 and 2."""
    total, injected, snapshot_hash = DEFAULT_SOAK[policy]
    result = ChaosSoakExperiment(
        ChaosSoakConfig(dtl=small_dtl_config(policy))).run()
    assert result.ok
    assert result.report.injected_total == total
    assert result.report.injected == injected
    assert [level.checker_audits for level in result.level_reports] \
        == [12, 11, 11]
    assert stable_hash(result.snapshot) == snapshot_hash
