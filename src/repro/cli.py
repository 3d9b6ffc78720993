"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro fig1                # Azure schedule memory usage
    python -m repro fig2                # rank-count sensitivity
    python -m repro fig5                # rank-interleaving cost
    python -m repro fig12 [--quick]     # power-down schedule experiment
    python -m repro fig14 [--point 208gb] [--duration 60]
    python -m repro fig15 [--duration 45]
    python -m repro fleet [--quick]     # racked fleet + TCO roll-up
    python -m repro chaos [--quick]     # fault-injection reliability soak
    python -m repro tournament [--quick]  # policy Pareto tournament
    python -m repro exp --list          # unified experiment registry
    python -m repro exp --name chaos --checkpoint run.ckpt --resume
    python -m repro cache prune --max-mb 256   # cap the on-disk cache
    python -m repro tables              # Tables 5 and 6 + Section 6.1
    python -m repro stats [--json]      # telemetry snapshot of a short run
    python -m repro stats --watch 2 --telemetry srv.json  # tail a server
    python -m repro serve --port 7123 --telemetry srv.json \
        --checkpoint srv.ckpt [--resume]       # online multi-tenant DTL
    python -m repro loadgen --tenants 8 --port 7123  # drive a server
    python -m repro all [--quick]       # everything, JSON to --output

Each subcommand prints ``metric | measured | paper`` tables rendered from
its :class:`~repro.sim.results.ExperimentRecord` (the one place a paper
reference value is written); ``--output results.json`` writes the same
records, and a record reporting ``ok: False`` makes the exit code 1.

Every command that emits a paper row — ``fig1``/``fig2``/``fig5``/
``fig12``/``fig14``/``fig15``/``tables``/``validate``/``fleet``/
``chaos``/``tournament``, ``exp --name`` and ``all`` —
shares one route (:func:`run_registered`): the spec's ``flag_configs``
turns the flags into configs,
:func:`repro.sim.experiments.run_experiments` runs them behind a
per-invocation result cache (``repro all`` simulates each capacity
point once for fig14 and fig15), and ``--workers N`` (or
``REPRO_EXEC_WORKERS``) fans a multi-config command — or a lone
experiment's own nodes/cells — out over processes.  This module keeps
the parser, that route's renderer, and the commands that emit no paper
row (``exp --list``, ``serve``, ``loadgen``, ``cache``, ``stats``).

``--checkpoint PATH`` on a single-experiment command runs it through the
stepping protocol (:mod:`repro.checkpoint`), persisting its state every
``--checkpoint-every`` units of work (a fan-out's unit is one round of
``--workers`` tasks); ``--resume`` restarts a preempted run from the
saved state and is bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
from typing import Any, Callable

from repro.checkpoint import CheckpointError, run_with_checkpoints
from repro.exec import ExecConfig, ResultCache
from repro.sim.combined import combine
from repro.sim.experiments import (EXPERIMENTS, make_experiment,
                                   run_experiments)
from repro.sim.figures import (ascii_chart, figure1_series,
                               figure12a_series, figure14_series)
from repro.sim.perf_model import PerformanceModel
from repro.sim.results import (ExperimentRecord, flatten_telemetry,
                               render_record, render_table, save_records)
from repro.sim.selfrefresh_sim import PAPER_CAPACITY_POINTS
from repro.units import GIB

#: Results computed earlier in this invocation (``repro all`` and
#: ``fig15`` reuse ``fig14``'s self-refresh runs).
_SESSION_CACHE = ResultCache()


def _print(title: str, rows: list[tuple], header: tuple = ()) -> None:
    print(f"\n=== {title} ===")
    print(render_table(rows, header))


def _usage_error(message: str) -> None:
    build_parser().error(message)


# -- registered experiments: one route -------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShellCommand:
    """A shell command that fronts one registered experiment.

    Attributes:
        experiment: Registry name; its spec's ``flag_configs`` turns the
            flags into the config(s) to run.
        record: ``--output`` record name where it is not the
            experiment's own (suffixed ``_<label>`` per config when the
            command fans out).
        derive: ``result -> object with to_record()`` for a figure
            computed *from* the experiment's result (Figure 15).
        series: ``result -> FigureSeries`` drawn under ``--plot``.
    """

    experiment: str
    record: str | None = None
    derive: Callable[[Any], Any] | None = None
    series: Callable[[Any], Any] | None = None


SHELL_COMMANDS: dict[str, ShellCommand] = {
    "fig1": ShellCommand(
        "fig1", series=lambda result: figure1_series(result.config.seed)),
    "fig2": ShellCommand("fig2"),
    "fig5": ShellCommand("fig5"),
    "fig12": ShellCommand(
        "powerdown_comparison", record="fig12",
        series=lambda pair: figure12a_series(pair.dtl)),
    "fig14": ShellCommand("selfrefresh", record="fig14",
                          series=figure14_series),
    "fig15": ShellCommand("selfrefresh", derive=combine),
    "fleet": ShellCommand("fleet"),
    "chaos": ShellCommand("chaos"),
    "tournament": ShellCommand("tournament"),
    "tables": ShellCommand("tables"),
    "validate": ShellCommand("validate"),
}


def _flag_configs(command: str, args: argparse.Namespace,
                  ) -> tuple[ShellCommand, dict[str, Any]]:
    """The one flags -> config path: ``(front, {label: config})``.

    A spec's own ``flag_configs`` decides where it has one; otherwise
    (and always for ``exp --name``) it is the smoke-test config — or,
    for a shell command without ``--quick``, the default config — with
    ``--seed`` applied.
    """
    front = (ShellCommand(args.name) if command == "exp"
             else SHELL_COMMANDS[command])
    spec = EXPERIMENTS[front.experiment]
    if command != "exp" and spec.flag_configs:
        return front, spec.flag_configs(args)
    config = (spec.tiny_config() if command == "exp" or args.quick
              else spec.config_type())
    if args.seed:
        if not hasattr(config, "with_seed"):
            _usage_error(f"--seed: {spec.name}'s "
                         f"{type(config).__name__} has no single seed")
        config = config.with_seed(args.seed)
    return front, {"": config}


def _run_requests(requests: list[tuple[str, Any]],
                  args: argparse.Namespace) -> list[Any]:
    """Run ``(experiment, config)`` requests; raises on a failed run.

    One executor batch behind the session cache — or, under
    ``--checkpoint``, one stepped run persisted through
    :mod:`repro.checkpoint`.
    """
    exec_config = ExecConfig(workers=args.workers)
    if not args.checkpoint:
        print(f"Running {len(requests)} simulation(s) "
              f"({exec_config.resolved_workers()} worker(s))...")
        outcomes = run_experiments(requests, exec_config=exec_config,
                                   cache=_SESSION_CACHE)
        return [outcome.unwrap() for outcome in outcomes]
    if len(requests) != 1:
        _usage_error("--checkpoint holds one run; this command asks "
                     f"for {len(requests)}")
    (name, config), = requests
    resuming = args.resume and os.path.exists(args.checkpoint)
    every = args.checkpoint_every
    print(f"{'Resuming' if resuming else 'Running'} {name} with "
          f"checkpoints at {args.checkpoint!r} "
          f"({'every ' + str(every) + ' steps' if every else 'final only'})"
          "...")
    return [run_with_checkpoints(
        make_experiment(name, config, exec_config),
        path=args.checkpoint, every=every, resume=args.resume)]


def run_registered(commands: list[str],
                   args: argparse.Namespace) -> list[ExperimentRecord]:
    """Flags -> configs -> registry -> rendered records, for every
    command that fronts a registered experiment.

    The commands' distinct ``(experiment, config)`` requests run as one
    batch, so ``repro all --workers N`` overlaps fig12 with fig14's
    capacity points and fig15 reuses fig14's runs.
    """
    plans = []
    requests: list[tuple[str, Any]] = []
    for command in commands:
        front, configs = _flag_configs(command, args)
        for label, config in configs.items():
            request = (front.experiment, config)
            if request not in requests:
                requests.append(request)
            plans.append((front, label, requests.index(request)))
    results = _run_requests(requests, args)
    records = []
    for front, label, index in plans:
        result = results[index]
        shown = front.derive(result) if front.derive else result
        record = shown.to_record()
        if front.record:
            record = dataclasses.replace(
                record, experiment="_".join(filter(None, (front.record,
                                                          label))))
        if hasattr(shown, "summary_rows"):
            print("\n" + render_table(shown.summary_rows()))
        summary = EXPERIMENTS[front.experiment].summary
        print(render_record(record, record.experiment if front.derive
                            else f"{record.experiment}: {summary}"))
        if args.plot and front.series:
            print("\n" + ascii_chart(front.series(result)))
        records.append(record)
    return records


def cmd_exp(args: argparse.Namespace) -> list[ExperimentRecord]:
    """Run a registered experiment by name (on its smoke-test config)."""
    if args.name and not args.list:
        return run_registered(["exp"], args)
    rows = [(spec.name, spec.config_type.__name__, spec.summary)
            for spec in EXPERIMENTS.values()]
    _print("Experiment registry", sorted(rows),
           header=("name", "config", "summary"))
    return []


# -- commands that emit no paper row -------------------------------------------


def _quickstart_snapshot():
    """The quickstart scenario's telemetry snapshot (stats command)."""
    from repro.core.config import DtlConfig
    from repro.core.controller import DtlController
    from repro.dram.geometry import DramGeometry
    from repro.units import MIB, s_to_ns

    controller = DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=1 * GIB), au_bytes=512 * MIB))
    vm_a = controller.allocate_vm(0, 4 * GIB, now_ns=0)
    vm_b = controller.allocate_vm(1, 2 * GIB, now_ns=s_to_ns(1.0))
    # One cold streaming pass, then a hot working set (SMC hits).
    offsets = range(16)
    controller.access_batch(
        0, [controller.hpa_of(au_id, offset)
            for au_id in vm_a.au_ids for offset in offsets],
        writes=[offset % 4 == 0 for _ in vm_a.au_ids for offset in offsets])
    hot = [controller.hpa_of(vm_b.au_ids[0], offset) for offset in offsets]
    controller.access_batch(1, hot * 4)
    controller.deallocate_vm(vm_a, now_ns=s_to_ns(100.0))
    controller.end_window()
    return controller.telemetry_snapshot(now_ns=s_to_ns(200.0))


def _watch_stats(args: argparse.Namespace) -> None:
    """Re-print a telemetry snapshot every ``--watch`` seconds.

    With ``--telemetry PATH`` the watch tails a live server's exporter
    file (already in :func:`~repro.server.protocol.render_snapshot`
    form); otherwise it re-renders the quickstart scenario.  Bounded by
    ``--iterations`` when given (CI/smoke), else runs until Ctrl-C.
    """
    import time as time_module

    from repro.server.protocol import render_snapshot
    iterations = (range(args.iterations) if args.iterations
                  else itertools.count())
    try:
        for index in iterations:
            if index:
                time_module.sleep(args.watch)
            if args.telemetry:
                try:
                    with open(args.telemetry) as handle:
                        document = handle.read().rstrip()
                except OSError as exc:
                    document = f"(telemetry not readable yet: {exc})"
            else:
                document = render_snapshot(_quickstart_snapshot())
            print(document, flush=True)
    except KeyboardInterrupt:
        pass


def cmd_stats(args: argparse.Namespace) -> list[ExperimentRecord]:
    """Dump (or ``--watch``: keep re-printing) a telemetry snapshot."""
    if args.watch:
        _watch_stats(args)
        return []
    snapshot = _quickstart_snapshot()
    data = snapshot.to_dict()
    record = ExperimentRecord("stats", flatten_telemetry(data))
    if args.json:
        print(snapshot.to_json(indent=2))
    else:
        print(render_record(record, "Telemetry counters, gauges, "
                                    "histograms and trace events"))
        rank_rows = [(key, *(f"{states.get(state, 0.0):.1f}"
                             for state in ("standby", "mpsm",
                                           "self_refresh")))
                     for key, states in sorted(
                         data["detail"]["rank_residency_s"].items())]
        _print("Per-rank residency (s)", rank_rows,
               header=("rank", "standby", "mpsm", "self_refresh"))
    return [record]


def cmd_serve(args: argparse.Namespace) -> list[ExperimentRecord]:
    """Run the online multi-tenant DTL service until SIGTERM/SIGINT."""
    from repro.server import ServerConfig, serve_forever
    config = ServerConfig(
        host=args.host, port=args.port, num_shards=args.shards,
        chaos=not args.no_chaos, telemetry_path=args.telemetry,
        telemetry_interval_s=args.telemetry_interval,
        checkpoint_path=args.checkpoint, seed=args.seed)
    code = serve_forever(config, resume=args.resume)
    if code:
        raise SystemExit(code)
    return []


def cmd_loadgen(args: argparse.Namespace) -> list[ExperimentRecord]:
    """Drive a running server with N concurrent tenant streams."""
    from repro.server import LoadgenConfig, run_loadgen_sync
    config = LoadgenConfig(tenants=args.tenants,
                           requests_per_tenant=args.requests,
                           batch=args.batch, seed=args.seed)
    # Banner to stderr so `--json` output stays machine-parseable.
    print(f"loadgen: {config.tenants} tenant(s) x "
          f"{config.requests_per_tenant} batches of {config.batch} "
          f"against {args.host}:{args.port}...", file=sys.stderr)
    report = run_loadgen_sync(config, args.host, args.port)
    summary = report.to_dict()
    del summary["latency_us"]["histogram"]
    record = ExperimentRecord("loadgen", summary)
    print(report.to_json() if args.json
          else render_record(record, "Load generator"))
    return [record]


def cmd_cache(args: argparse.Namespace) -> list[ExperimentRecord]:
    """Inspect or prune the on-disk result cache (REPRO_EXEC_CACHE_DIR)."""
    from repro.exec import EXEC_METRICS
    cache = ResultCache()
    if cache.directory is None:
        print("Result cache is memory-only: set REPRO_EXEC_CACHE_DIR to "
              "enable a persistent on-disk cache.")
        return []
    action = args.action or "stats"
    total = cache.total_bytes()
    evicted = 0
    if action == "prune":
        max_bytes = int(args.max_mb * 1024 * 1024)
        evicted = cache.prune(max_bytes)
        EXEC_METRICS.counter("exec.cache_evictions").inc(evicted)
        total = cache.total_bytes()
    elif action != "stats":
        raise SystemExit(f"unknown cache action {action!r}; "
                         "choices: ['prune', 'stats']")
    EXEC_METRICS.gauge("exec.cache_bytes").set(total)
    record = ExperimentRecord("cache", {"directory": str(cache.directory),
                                        "cache_bytes": total,
                                        "entries": len(cache),
                                        "evicted": evicted})
    print(render_record(record, "Result cache (prune: LRU by mtime to "
                                "--max-mb)"))
    return [record]


#: Commands that emit no paper row: the registry front door, the
#: service and its tools.  Every figure and table of the paper is a
#: registered experiment behind :data:`SHELL_COMMANDS`.
COMMANDS: dict[str, Callable[[argparse.Namespace],
                             list[ExperimentRecord]]] = {
    "exp": cmd_exp,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "cache": cmd_cache,
    "stats": cmd_stats,
}

#: ``repro all``, in print (and ``--output``) order.
ALL_COMMANDS = ("fig1", "fig2", "fig5", "fig12", "fig14", "fig15", "tables",
                "stats")


def run_commands(names: tuple[str, ...],
                 args: argparse.Namespace) -> list[ExperimentRecord]:
    """Run ``names`` in order; neighbouring registered-experiment
    commands share one :func:`run_registered` batch."""
    records: list[ExperimentRecord] = []
    for registered, group in itertools.groupby(
            names, key=SHELL_COMMANDS.__contains__):
        if registered:
            records.extend(run_registered(list(group), args))
        else:
            for name in group:
                records.extend(COMMANDS[name](args))
    return records


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DTL paper's experiments (ISCA 2023).")
    parser.add_argument("command",
                        choices=sorted({*COMMANDS, *SHELL_COMMANDS, "all"}),
                        help="experiment to run")
    parser.add_argument("action", nargs="?", default=None,
                        help="subaction for 'cache' (prune|stats)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale run: fig12/all a 1 h 80-VM "
                             "schedule, fleet 2 nodes, chaos 2 small "
                             "levels, tournament 2 s cells")
    parser.add_argument("--point", choices=sorted(PAPER_CAPACITY_POINTS),
                        default=None,
                        help="single fig14 capacity point")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="fig14/fig15 simulated seconds (default 60)")
    parser.add_argument("--plot", action="store_true",
                        help="render ASCII charts for timeseries figures")
    parser.add_argument("--workers", type=int, default=None,
                        help="executor processes (default: "
                             "REPRO_EXEC_WORKERS, else serial)")
    parser.add_argument("--name", choices=sorted(EXPERIMENTS), default=None,
                        help="experiment to run with 'exp'")
    parser.add_argument("--list", action="store_true",
                        help="list the experiment registry with 'exp'")
    parser.add_argument("--json", action="store_true",
                        help="emit the stats snapshot / loadgen report "
                             "as raw JSON")
    parser.add_argument("--watch", type=float, default=0.0, metavar="N",
                        help="'stats': re-print the snapshot every N "
                             "seconds (with --telemetry PATH, tail a "
                             "server's exporter file)")
    parser.add_argument("--iterations", type=int, default=0,
                        help="bound --watch to this many prints "
                             "(default: until Ctrl-C)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="serve/loadgen TCP host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7123,
                        help="serve/loadgen TCP port (default 7123)")
    parser.add_argument("--shards", type=int, default=2,
                        help="'serve': controller shards (default 2)")
    parser.add_argument("--no-chaos", action="store_true",
                        help="'serve': disarm the always-on fault "
                             "injector")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="'serve': exporter output file; "
                             "'stats --watch': file to tail")
    parser.add_argument("--telemetry-interval", type=float, default=5.0,
                        help="'serve': exporter period in seconds "
                             "(default 5)")
    parser.add_argument("--tenants", type=int, default=8,
                        help="'loadgen': concurrent tenants (default 8)")
    parser.add_argument("--requests", type=int, default=50,
                        help="'loadgen': access batches per tenant "
                             "(default 50)")
    parser.add_argument("--batch", type=int, default=256,
                        help="'loadgen': accesses per batch (default 256)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="single-experiment commands: persist the "
                             "stepped run state to PATH; 'serve': drain "
                             "checkpoint path")
    parser.add_argument("--resume", action="store_true",
                        help="resume an experiment/'serve' from the "
                             "--checkpoint file when it exists")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N",
                        help="save every N units of work "
                             "(default: only on completion)")
    parser.add_argument("--max-mb", type=float, default=256.0,
                        help="size cap for 'cache prune' (default 256)")
    parser.add_argument("--output", default=None,
                        help="write JSON records to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (1 when a record
    reports ``ok: False``, or one stderr line for a refused --resume)."""
    args = build_parser().parse_args(argv)
    names = ALL_COMMANDS if args.command == "all" else (args.command,)
    try:
        records = run_commands(names, args)
    except CheckpointError as exc:  # a refused --resume, not a crash
        raise SystemExit(f"repro {args.command}: {exc}") from None
    if args.output:
        path = save_records(records, args.output)
        print(f"\nWrote {len(records)} records to {path}")
    failed = [record.experiment for record in records
              if record.metrics.get("ok") is False]
    if failed:
        print(f"\nFAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
