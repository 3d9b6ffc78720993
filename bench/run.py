"""The DTL reproduction's one benchmark.

Driver contract (one workload, one process)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a readable report and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) named in ``BENCHMARK.json``.  The exit code is non-zero
when an output check fails.

Without ``--workload`` it runs all seven workloads (the five the driver
runs and the two in ``UNGATED``) for the seed, untraced
(``--repeat`` times) and traced, each in its own child process, prints
every metric with unit, direction and bound, and can save all results for
``compare.py`` (``--out``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
# The program under test is the checkout's own source tree.
sys.path.insert(0, str(ROOT_DIR / "src"))

import numpy as np  # noqa: E402

from common import ROOT, Rep, Workload, percentile, quartiles  # noqa: E402
from layers import (END_TO_END, PER_LAYER, closure_error,  # noqa: E402
                    layer_metrics)
from spans import Tracer  # noqa: E402
from wl_datapath import DatapathCold, DatapathHot, DatapathSliver  # noqa: E402
from wl_serve import ServeChaos, ServeClean  # noqa: E402
from wl_sims import SrReplay, VmChurn  # noqa: E402

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DatapathHot, DatapathCold, DatapathSliver,
                              VmChurn, SrReplay, ServeClean, ServeChaos)}

#: Workloads that run by hand (``--workload``, run-everything mode, the
#: self-test) but that ``BENCHMARK.json`` does not list, so the driver
#: neither runs them nor holds a change to them.  The driver's time cap is
#: per run_seconds x workloads; with all seven listed a run measured for
#: 12 s, and host slow phases of 20-60 s then covered three of a
#: workload's ten runs often enough to push the quartile spread of
#: ``op_p95_ms`` past its bound (README, "Why five of the seven").
UNGATED = {
    "datapath_sliver":
        "The datapath_hot trace and state in 128-access calls: fixed "
        "per-call cost dominates, so per-call overhead shows here and "
        "batch-planning overhead added for large calls is caught here.",
    "sr_replay":
        "SelfRefreshSimulator at the 208 GB and 304 GB Figure 14 points "
        "via on_batch: CLOCK planner, SR entry/exit, swaps and power "
        "accounting; its two paper-anchored savings give the accuracy "
        "figure.",
}

#: Two systems are built before an untraced run measures (the twin the
#: output check replays on and the measured one); this many more are timed
#: and discarded afterwards.  The early ones run in a cold, growing process
#: (fresh pages, collector passes over the systems already alive) and took
#: 0.29-0.88 s where the later ones took 0.24-0.37 s, so ``setup_s`` needs
#: the later ones.
LATE_SETUPS = 6


def host_fingerprint() -> dict[str, object]:
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform()}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (one workload per process), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(workload: Workload, system, seconds: float, tracer=None,
           ) -> list[Rep]:
    """Repetitions of fixed work until ``seconds`` are used.

    Another repetition starts only while at least half of it still fits,
    so a run overshoots its budget by at most half a repetition.  Garbage
    is collected between repetitions, so when a cycle is freed (and with
    it peak memory) does not depend on where the collector's counters
    happen to stand.
    """
    start = perf_counter()
    reps = []
    while True:
        gc.collect()
        reps.append(workload.rep(system, collect=not reps, tracer=tracer))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(reps) / 2 > seconds:
            return reps


def best(workload: Workload, reps: list[Rep]) -> dict[str, float]:
    """The steady reading of a list of repetitions: the best of each.

    Host time on the shared 2-core box this was sized on is noisy in one
    direction and in phases of several seconds: identical 0.3 s calls
    took 0.29-0.57 s.  Over fourteen 10 s windows of ``datapath_cold``
    the median repetition moved by 12 % (quartile distance over median),
    the fastest repetition by 6 %, and the sum of each call's fastest
    occurrence by 4 %.  So operation ``i``, the same work in every
    repetition, is read at its fastest and the percentiles are taken
    over those.  The rate is computed over them too where a repetition
    is its operations one after another, and is the best repetition's
    where they overlap.
    """
    fastest = [min(times) for times in
               zip(*(rep.latencies_ms for rep in reps))]
    if workload.sequential:
        overhead = min(rep.wall_s - sum(rep.latencies_ms) / 1e3
                       for rep in reps)  # time outside operations
        rate = reps[0].work / (sum(fastest) / 1e3 + overhead)
    else:
        rate = max(rep.work / rep.wall_s for rep in reps)
    return {"work_per_s": rate,
            "op_p50_ms": percentile(fastest, 50.0),
            "op_p95_ms": percentile(fastest, 95.0)}


def measure_untraced(workload: Workload, main, twin, seconds: float):
    """The end-to-end metrics (all but ``setup_s``) of one run."""
    reps = repeat(workload, main, seconds)
    failures = workload.check(main, twin, reps[0])
    metrics = {**best(workload, reps), "peak_rss_mb": peak_rss_mb(),
               "model_cost": reps[0].model_cost}
    samples = {
        "work_per_s": [rep.work / rep.wall_s for rep in reps],
        "op_p50_ms": [percentile(rep.latencies_ms, 50.0) for rep in reps],
        "op_p95_ms": [percentile(rep.latencies_ms, 95.0) for rep in reps]}
    return reps, failures, metrics, samples


def measure_traced(workload: Workload, main, twin, reference,
                   seconds: float, trace_out: str | None):
    """The per-layer metrics of one run.

    A third of the time goes to untraced repetitions of ``reference``,
    which the overhead is measured against and whose simulated result the
    traced system must reproduce; the rest to traced repetitions of
    ``main``.
    """
    untraced = repeat(workload, reference, seconds / 3)
    tracer = Tracer()
    workload.instrument(main, tracer)
    reps = repeat(workload, main, seconds * 2 / 3, tracer)
    tracer.remove()  # checks and stats reads below stay off the record
    first = reps[0]
    failures = workload.check(main, twin, first)
    if untraced[0].model_cost != first.model_cost:
        failures.append(
            f"traced run's model_cost {first.model_cost!r} differs from "
            f"the untraced run's {untraced[0].model_cost!r}")
    if closure_error(tracer, ROOT) > 0.02:
        failures.append("layer self times do not sum to the root span")
    probe, probe_failures = workload.checkpoint_probe(twin)
    failures.extend(probe_failures)
    metrics = layer_metrics(
        tracer, len(reps), ROOT,
        {**workload.layer_counts(main, first), **probe})
    metrics["trace.overhead_fraction"] = (
        min(rep.wall_s for rep in reps)
        / min(rep.wall_s for rep in untraced) - 1.0)
    if trace_out:
        tracer.dump(trace_out)
    return untraced + reps, failures, metrics, {}


def run_workload(workload: Workload, seconds: float, trace: bool,
                 trace_out: str | None = None) -> dict:
    """Set up, measure, and check one workload; returns the full record."""
    setup_s: list[float] = []

    def setup():
        gc.collect()
        start = perf_counter()
        system = workload.setup()
        setup_s.append(perf_counter() - start)
        return system

    twin, main = setup(), setup()
    if trace:
        reference = setup()
        reps, failures, metrics, samples = measure_traced(
            workload, main, twin, reference, seconds, trace_out)
    else:
        reference = None
        reps, failures, metrics, samples = measure_untraced(
            workload, main, twin, seconds)
    for system in (twin, reference, main):
        if system is not None:
            workload.close(system)
    del twin, reference, main, system
    if not trace:
        for _ in range(LATE_SETUPS):
            workload.close(setup())
        # Read like every other host time here (see ``best``): over six
        # runs the fastest set-up moved by 5 %, the median by 20 %.
        metrics["setup_s"] = min(setup_s)
    return {"correct": not failures, "failures": failures,
            "reps": len(reps), "attempted": sum(rep.ops for rep in reps),
            "failed": sum(rep.failed for rep in reps), "metrics": metrics,
            "samples": samples, "setup_s_samples": setup_s}


# -- reporting ---------------------------------------------------------------


def load_manifest() -> dict:
    with open(ROOT_DIR / "BENCHMARK.json") as handle:
        return json.load(handle)


def workload_whys(manifest: dict) -> dict[str, str]:
    """Why each of the seven workloads exists, in ``WORKLOADS`` order:
    the manifest's sentences, then the ungated workloads' own."""
    whys = {entry["name"]: entry["why"] for entry in manifest["workloads"]}
    return {name: whys.get(name) or UNGATED[name] for name in WORKLOADS}


def _units(trace: bool) -> dict[str, tuple]:
    table = PER_LAYER if trace else END_TO_END
    return {row[0]: row[1:] for row in table}


def result_object(record: dict, trace: bool) -> dict:
    """The driver's result object (last line of standard output)."""
    units = _units(trace)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name],
                           "unit": units[name][0]}
                    for name in units},
    }


def print_report(workload: Workload, args, record: dict) -> None:
    why = workload_whys(load_manifest())[workload.name]
    print(f"bench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} smoke={args.smoke}"
          + (" (not in BENCHMARK.json)" if workload.name in UNGATED else ""))
    print("host: " + " ".join(f"{key}={value}" for key, value
                              in host_fingerprint().items()))
    print(f"why: {why}")
    print(f"work unit: {workload.work_unit}; model_cost unit: "
          f"{workload.model_unit}")
    print(f"repetitions={record['reps']} operations={record['attempted']} "
          f"failed={record['failed']}")
    units = _units(bool(args.trace))
    for name, spec in units.items():
        value = record["metrics"][name]
        line = f"  {name:36s} {value:>16.6g} {spec[0]:9s} {spec[1]:6s}"
        if not args.trace:
            line += f" bound {spec[2]:.0%}"
            samples = record["samples"].get(name) or (
                record["setup_s_samples"] if name == "setup_s" else None)
            if samples:
                q1, median, q3 = quartiles(samples)
                line += (f"  n={len(samples)} q1={q1:.6g} "
                         f"median={median:.6g} q3={q3:.6g}")
        print(line)
    if record["correct"]:
        print("checks: ok")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")


# -- entry points ------------------------------------------------------------


def run_one(args) -> int:
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    record = run_workload(workload, args.seconds, bool(args.trace),
                          args.trace_out)
    print_report(workload, args, record)
    result = result_object(record, bool(args.trace))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "trace": args.trace, "smoke": args.smoke,
                       "host": host_fingerprint(), **result,
                       "failures": record["failures"],
                       "reps": record["reps"],
                       "samples": record["samples"],
                       "setup_s_samples": record["setup_s_samples"]},
                      handle)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload, each run in its own child process."""
    runs = []
    status = 0
    with tempfile.TemporaryDirectory(dir=os.getcwd(),
                                     prefix=".bench_out_") as directory:
        for name in WORKLOADS:
            for trace in [0] * args.repeat + [1]:
                path = os.path.join(directory, "run.json")
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--json-out", path]
                if args.smoke:
                    command.append("--smoke")
                child = subprocess.run(command, stdout=subprocess.PIPE,
                                       text=True, timeout=900)
                # Everything but the child's machine-readable last line.
                print(child.stdout.rsplit("\n", 2)[0])
                if child.returncode != 0 or not os.path.exists(path):
                    status = 1
                    print(f"RUN FAILED: {name} trace={trace} "
                          f"exit={child.returncode}")
                    continue
                with open(path) as handle:
                    runs.append(json.load(handle))
                os.unlink(path)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "host": host_fingerprint(), "runs": runs}, handle,
                      indent=1)
        print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process "
                             "(default: all, one child process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds every input generator (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced run's spans here")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also write this run's result as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the self-test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload when running all")
    parser.add_argument("--out", metavar="PATH",
                        help="when running all: save every result here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else load_manifest()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
