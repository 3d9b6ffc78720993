"""Chaos soak experiment: escalating faults with consistency audits."""

from repro.faults import ChaosSoakConfig, ChaosSoakExperiment
from repro.sim import EXPERIMENTS


def tiny_config(seed: int = 0) -> ChaosSoakConfig:
    return ChaosSoakConfig(seed=seed, levels=2, batches_per_phase=3,
                           batch_size=24)


class TestChaosSoak:
    def test_soak_is_clean_and_report_is_non_empty(self):
        result = ChaosSoakExperiment(tiny_config()).run()
        assert result.ok
        report = result.report
        assert report.checker_violations == []
        assert report.data_loss_events == 0
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
        assert report.checker_audits == 20
        assert report.checker_violations == []
        assert report.data_loss_events == 0

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
        assert record.metrics["data_loss_events"] == 0
        assert record.metrics["faults_injected"] > 0
        assert record.paper["checker_violations"] == 0
