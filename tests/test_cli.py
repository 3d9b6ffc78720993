"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.exec import TaskOutcome
from repro.sim.experiments import EXPERIMENTS

#: ``--output`` records captured at the parent of the one-route refactor
#: (seed 0): argv -> [{"experiment", "metrics"}], deterministic metrics
#: only.  The shell surface must keep reproducing them.
PARENT_RECORDS = json.loads(
    (Path(__file__).parent / "cli_records_parent.json").read_text())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.seed == 0
        assert not args.quick
        assert args.duration == 60.0


class TestFastCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "mean usage" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "slowdown" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "CXL memory" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "Table 6" in out and "AMAT" in out

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        assert main(["fig2", "--output", str(path)]) == 0
        records = json.loads(path.read_text())
        assert records[0]["experiment"] == "fig2"
        assert "slowdown_2ranks" in records[0]["metrics"]


class TestSimCommands:
    def test_fig14_single_point_short(self, capsys):
        assert main(["fig14", "--point", "208gb", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "208gb" in out

    def test_seed_changes_fig1(self, capsys):
        main(["fig1", "--seed", "1"])
        first = capsys.readouterr().out
        main(["fig1", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestStatsCommand:
    def test_stats_table(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry counters" in out
        assert "smc.l1.hits" in out
        assert "Per-rank residency" in out

    def test_stats_json_is_parseable(self, capsys):
        assert main(["stats", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # SMC hit ratios, migration counters, per-rank residency.
        assert 0.0 <= data["gauges"]["smc.l1.hit_ratio"] <= 1.0
        assert "migration.segments_migrated" in data["counters"]
        assert "ch0r0" in data["detail"]["rank_residency_s"]
        assert data["counters"]["dtl.accesses"] > 0

    def test_stats_records(self, capsys):
        from repro.cli import cmd_stats

        args = build_parser().parse_args(["stats"])
        records = cmd_stats(args)
        assert records[0].experiment == "stats"
        assert records[0].metrics["dtl.accesses"] > 0
        assert "smc.l1.hit_ratio" in records[0].metrics

    def test_batch_scenario_matches_the_scalar_loop(self, monkeypatch):
        """`repro stats` serves its scenario through ``access_batch``;
        the same scenario through scalar ``access`` gives the same
        snapshot, up to the float totals the identity contract exempts
        (docs/PERF.md)."""
        from repro.core.controller import DtlController

        def scalar_loop(self, host_id, hpas, writes=None, now_ns=0.0):
            for index, hpa in enumerate(hpas):
                self.access(host_id, hpa, is_write=bool(
                    writes is not None and writes[index]), now_ns=now_ns)

        batch = cli._quickstart_snapshot().to_dict()
        monkeypatch.setattr(DtlController, "access_batch", scalar_loop)
        scalar = cli._quickstart_snapshot().to_dict()
        float_total = "translation.latency_total_ns"
        assert batch["counters"].pop(float_total) == pytest.approx(
            scalar["counters"].pop(float_total))
        assert batch["counters"] == scalar["counters"]
        assert batch["gauges"] == scalar["gauges"]
        assert batch["events"] == scalar["events"]
        assert (batch["detail"]["rank_residency_s"]
                == scalar["detail"]["rank_residency_s"])
        assert batch["histograms"].keys() == scalar["histograms"].keys()
        for name, histogram in batch["histograms"].items():
            other = scalar["histograms"][name]
            for total in ("sum", "mean"):
                assert histogram.pop(total) == pytest.approx(
                    other.pop(total)), (name, total)
            assert histogram == other, name
        assert batch["counters"]["dtl.accesses"] == 8 * 16 + 4 * 16


class TestPlotFlag:
    def test_fig1_plot(self, capsys):
        from repro.cli import main
        assert main(["fig1", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "fig1: usage" in out
        assert "#" in out

    def test_fleet_quick(self, capsys):
        from repro.cli import main
        assert main(["fleet", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "node 0" in out and "fleet savings" in out
        assert "annual cost" in out

    def test_validate(self, capsys):
        from repro.cli import main
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "Workload calibration" in out
        # The per-workload table, then a record that passes its gate.
        rows = [line.split() for line in out.splitlines()]
        assert ["workload", "MAPKI", "m/t", ">=4MB", "cold@2M",
                "cold@4M"] in rows
        assert ["problems", "[]"] in rows and ["ok", "True"] in rows


class TestCheckpointCli:
    def test_exp_checkpoint_then_resume(self, capsys, tmp_path):
        path = tmp_path / "run.ckpt"
        assert main(["exp", "--name", "rank_sweep",
                     "--checkpoint", str(path),
                     "--checkpoint-every", "1"]) == 0
        first = capsys.readouterr().out
        assert path.exists()
        assert "checkpoints at" in first
        assert main(["exp", "--name", "rank_sweep",
                     "--checkpoint", str(path), "--resume"]) == 0
        second = capsys.readouterr().out
        assert "Resuming rank_sweep" in second
        # The resumed run reports the same metrics table.
        metrics = [line for line in first.splitlines() if "savings" in line]
        for line in metrics:
            assert line in second

    def test_resume_without_file_starts_fresh(self, capsys, tmp_path):
        path = tmp_path / "absent.ckpt"
        assert main(["exp", "--name", "rank_sweep",
                     "--checkpoint", str(path), "--resume"]) == 0
        assert "Running rank_sweep" in capsys.readouterr().out
        assert path.exists()


class TestCacheCli:
    def test_memory_only_notice(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_CACHE_DIR", raising=False)
        assert main(["cache"]) == 0
        assert "memory-only" in capsys.readouterr().out

    def test_stats_and_prune(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE_DIR", str(tmp_path))
        from repro.exec import ResultCache
        seeded = ResultCache()
        seeded.put("entry-a", b"x" * 8192)
        seeded.put("entry-b", b"y" * 8192)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and " 2" in out
        assert main(["cache", "prune", "--max-mb", "0.000001"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert not list(tmp_path.glob("*.pkl"))

    def test_unknown_action_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit):
            main(["cache", "flush"])


def run_cli(argv: str, tmp_path) -> tuple[int, list[dict]]:
    path = tmp_path / "records.json"
    code = main(argv.split() + ["--output", str(path)])
    return code, json.loads(path.read_text())


class TestRecordsContract:
    @pytest.mark.parametrize("argv", sorted(PARENT_RECORDS))
    def test_reproduces_parent_records(self, argv, tmp_path, capsys):
        code, records = run_cli(argv, tmp_path)
        assert code == 0
        expected = PARENT_RECORDS[argv]
        assert ([record["experiment"] for record in records]
                == [record["experiment"] for record in expected])
        for record, parent in zip(records, expected):
            # Extra metric keys are allowed; every parent key and value
            # must survive.
            kept = {key: record["metrics"].get(key)
                    for key in parent["metrics"]}
            assert kept == parent["metrics"], record["experiment"]
            # Paper values are keyed by the metric they reference.
            assert set(record["paper"]) <= set(record["metrics"])

    def test_paper_values_are_numbers_where_the_paper_gives_one(
            self, tmp_path, capsys):
        _, (record,) = run_cli("fig14 --point 208gb --duration 3", tmp_path)
        assert record["paper"] == {"stable_savings": 0.203}
        _, (record,) = run_cli("fig14 --point 224gb --duration 3", tmp_path)
        assert record["paper"] == {"stable_savings": "mixed"}

    def test_rendered_table_shows_paper_next_to_measured(self, capsys):
        assert main(["fig5"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["metric", "measured", "paper"] in rows
        assert any(row[0] == "cxl" and row[2] == "0.014" for row in rows
                   if len(row) == 3)


class TestOneRoute:
    def test_commands_holds_only_what_emits_no_paper_row(self):
        assert set(cli.COMMANDS) == {"exp", "serve", "loadgen", "cache",
                                     "stats"}

    def test_all_is_registered_experiments_plus_stats(self):
        assert set(cli.ALL_COMMANDS) - {"stats"} <= set(cli.SHELL_COMMANDS)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_registered_experiment_runs_from_the_shell(
            self, name, tmp_path, capsys):
        code, (record,) = run_cli(f"exp --name {name}", tmp_path)
        assert code == int(record["metrics"].get("ok") is False)
        assert code == 0
        assert record["experiment"].replace("_", "-") == \
            name.replace("_", "-")
        assert record["metrics"]

    @pytest.mark.parametrize("quick", [[], ["--quick"]])
    def test_every_shell_command_builds_seeded_configs(self, quick):
        args = build_parser().parse_args(["fig14", "--seed", "3", *quick])
        for command in cli.SHELL_COMMANDS:
            front, configs = cli._flag_configs(command, args)
            spec = EXPERIMENTS[front.experiment]
            assert configs, command
            for config in configs.values():
                assert isinstance(config, spec.config_type), command
                seed = getattr(config, "seed", None)
                assert (config.base_seed if seed is None else seed) == 3

    def test_exp_seed_changes_the_record(self, tmp_path, capsys):
        records = [run_cli(f"exp --name rank_sweep --seed {seed}",
                           tmp_path)[1][0] for seed in (0, 1, 2)]
        assert records[0]["metrics"] == \
            PARENT_RECORDS["exp --name rank_sweep"][0]["metrics"]
        assert records[1]["metrics"] != records[0]["metrics"]
        assert records[2]["metrics"] != records[1]["metrics"]

    def test_seed_reaches_only_the_rows_that_draw(self, tmp_path, capsys):
        # One rule: a command takes --seed when its config has one.  The
        # analytic rows share a seeded config; the closed-form ones draw
        # nothing, so `repro all --seed N` moves fig1 and leaves them be.
        def records(seed):
            _, found = run_cli("all --quick --duration 1 --point 208gb "
                               f"--seed {seed}", tmp_path)
            return {record["experiment"]: record["metrics"]
                    for record in found}
        base, reseeded = records(0), records(3)
        assert reseeded["fig1"] != base["fig1"]
        for name in ("fig2", "fig5", "tables"):
            assert reseeded[name] == base[name]

    def test_exp_seed_is_a_usage_error_where_it_cannot_apply(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exp", "--name", "fleet", "--seed", "1"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_checkpoint_needs_a_single_run(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fig14", "--duration", "1",
                  "--checkpoint", str(tmp_path / "x.ckpt")])
        assert info.value.code == 2

    def test_resuming_a_finished_run_keeps_its_step(self, tmp_path, capsys):
        from repro.checkpoint import load_checkpoint
        path = str(tmp_path / "run.ckpt")
        argv = ["exp", "--name", "rank_sweep", "--checkpoint", path]
        assert main(argv) == 0
        step = load_checkpoint(path).step
        for _ in range(2):
            assert main(argv + ["--resume"]) == 0
            assert load_checkpoint(path).step == step

    def test_all_shares_fig14_runs_with_fig15(self, monkeypatch, tmp_path,
                                              capsys):
        batches = []
        real = cli.run_experiments

        def spy(requests, **kwargs):
            batches.append([name for name, _ in requests])
            return real(requests, **kwargs)

        monkeypatch.setattr(cli, "run_experiments", spy)
        code, records = run_cli("all --quick --duration 1 --point 208gb",
                                tmp_path)
        assert code == 0
        assert batches == [["fig1", "fig2", "fig5", "powerdown_comparison",
                            "selfrefresh", "tables"]]
        assert [record["experiment"] for record in records] == [
            "fig1", "fig2", "fig5", "fig12", "fig14_208gb", "fig15_208gb",
            "tables", "stats"]
        for record in records:
            assert set(record["paper"]) <= set(record["metrics"])


def failing_result(command: str):
    from repro.faults.chaos import ChaosSoakConfig, ChaosSoakResult
    from repro.faults.injector import ReliabilityReport
    from repro.sim.analytic import AnalyticConfig, CalibrationResult
    from repro.sim.tournament import TournamentConfig, TournamentResult
    from repro.workloads.validation import ValidationReport, WorkloadCheck
    if command == "validate":
        return CalibrationResult(AnalyticConfig(), ValidationReport([
            WorkloadCheck("data-serving", mapki=8.4, mapki_target=4.2,
                          large_stride_share=0.2, cold_2mb=0.6,
                          cold_4mb=0.3)]))
    if command == "chaos":
        return ChaosSoakResult(ChaosSoakConfig(), ReliabilityReport(
            checker_audits=1, checker_violations=["hsn 3 mapped twice"]))
    return TournamentResult(TournamentConfig(), cells=[],
                            failures=[("bogus", "mix0", "no policy")])


class TestFailingRecords:
    @pytest.mark.parametrize("command", ["chaos", "tournament",
                                         "validate"])
    def test_failing_record_exits_non_zero(self, command, monkeypatch,
                                           tmp_path, capsys):
        monkeypatch.setattr(
            cli, "run_experiments",
            lambda requests, **kwargs: [TaskOutcome(
                label=command, value=failing_result(command))])
        code, (record,) = run_cli(f"{command} --quick", tmp_path)
        assert code == 1
        assert record["metrics"]["ok"] is False
        assert "FAILED" in capsys.readouterr().err
