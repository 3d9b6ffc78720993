"""Compare two saved benchmark result sets, metric by metric.

    python3 bench/compare.py A.json B.json

``A`` is the parent commit's ``run.py --out`` file and ``B`` the change's
(same seed, same ``--seconds``, ideally ``--repeat`` >= 5 each).  One row
per workload and end-to-end metric: both medians with their quartiles, the
bound ``BENCHMARK.json`` fixes, and a verdict:

``ok``          B's median is no worse than A's by more than the bound.
``worse``       B's median is worse than A's by more than the bound.
``unresolved``  the run-to-run spread (quartile distance over median, on
                either side) is wider than the bound, so the rows cannot
                tell — unless every run of B reads better than every run
                of A, which is ``ok``.

``model_cost`` is a simulated result, deterministic for a seed: it must
be exactly equal (``==``) on both sides, whatever its bound.  A workload
with a failed output check or a failed operation on the B side is
``worse``.  The exit code is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import quartiles  # noqa: E402

#: Metrics that repeat exactly for a seed and compare with ``==``.
EXACT = ("model_cost",)


def load(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a result file, grouped by workload."""
    with open(path) as handle:
        document = json.load(handle)
    grouped: dict[str, list[dict]] = {}
    for run in document["runs"]:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median_b - median_a) / abs(median_a)
    spread = max((quartiles(values)[2] - quartiles(values)[0])
                 / abs(statistics.median(values)) for values in (a, b))
    if spread > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        return "ok" if all_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(a_path: str, b_path: str, manifest: dict) -> int:
    runs_a, runs_b = load(a_path), load(b_path)
    status = 0
    header = (f"{'workload':16s} {'metric':12s} {'A median':>12s} "
              f"{'A q1..q3':>25s} {'B median':>12s} {'B q1..q3':>25s} "
              f"{'bound':>6s}  verdict")
    print(header)
    # Every workload either side ran: the manifest's and the ungated ones.
    for name in {**runs_a, **runs_b}:
        if name not in runs_a or name not in runs_b:
            print(f"{name:16s} missing from "
                  f"{'A' if name not in runs_a else 'B'}")
            status = 1
            continue
        broken = [run for run in runs_b[name]
                  if not run["correct"] or run["failed"]]
        for metric in manifest["end_to_end"]:
            a, b = ([run["metrics"][metric["name"]]["value"]
                     for run in runs] for runs in (runs_a[name],
                                                   runs_b[name]))
            if metric["name"] in EXACT:
                result = "ok" if sorted(set(a)) == sorted(set(b)) \
                    else "worse"
            else:
                result = verdict(a, b, metric["better"], metric["bound"])
            if broken:
                result = "worse"
            if result == "worse":
                status = 1
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            print(f"{name:16s} {metric['name']:12s} {a2:12.6g} "
                  f"{a1:12.6g}..{a3:<11.6g} {b2:12.6g} "
                  f"{b1:12.6g}..{b3:<11.6g} {metric['bound']:6.0%}  "
                  f"{result}")
        if broken:
            print(f"{name:16s} B has {len(broken)} run(s) with a failed "
                  "check or failed operations")
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    root = Path(__file__).resolve().parent.parent
    with open(root / "BENCHMARK.json") as handle:
        manifest = json.load(handle)
    return compare(argv[0], argv[1], manifest)


if __name__ == "__main__":
    sys.exit(main())
