"""Self-test of the benchmark (run explicitly; not part of tier-1).

    python3 bench/test_bench.py          # or: python3 -m pytest bench/test_bench.py

A ``--smoke`` pass with tiny sizes: every workload (the manifest's five
and the two ungated ones) runs untraced and
traced at seed 0 through the run-everything mode, and traced at seed 1
with the spans written out.  Asserts the manifest's shape, that every
metric and workload it names is printed exactly once where it applies,
that span parents exist and child time never exceeds parent time, and
that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def manifest() -> dict:
    with open(ROOT_DIR / "BENCHMARK.json") as handle:
        return json.load(handle)


def run(*arguments: str, cwd: Path = ROOT_DIR,
        script: Path = BENCH_DIR / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *arguments],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def test_manifest_shape() -> None:
    document = manifest()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["bench"]
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = []
    for entry in document["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [entry for entry in document["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert len((ROOT_DIR / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_manifest_matches_code() -> None:
    from layers import END_TO_END, PER_LAYER
    from run import UNGATED, WORKLOADS, workload_whys
    document = manifest()
    # The manifest lists, in order, every workload that is not ungated.
    assert [entry["name"] for entry in document["workloads"]] \
        == [name for name in WORKLOADS if name not in UNGATED]
    assert set(UNGATED) < set(WORKLOADS)
    assert list(workload_whys(document)) == list(WORKLOADS)
    assert all(len(why) <= 200 and "\n" not in why
               for why in UNGATED.values())
    assert [(e["name"], e["unit"], e["better"], e["bound"])
            for e in document["end_to_end"]] == list(END_TO_END)
    assert [(e["name"], e["unit"], e["better"])
            for e in document["per_layer"]] == list(PER_LAYER)


def _check_report(text: str, workload: str, seed: int, trace: int,
                  document: dict) -> dict:
    """One child report: header, each metric once, a well-formed result."""
    lines = text.strip().splitlines()
    assert f"workload={workload} seed={seed} " in lines[0], lines[0]
    expected = [entry["name"] for entry in
                document["per_layer" if trace else "end_to_end"]]
    for name in expected:
        printed = [line for line in lines if line.split()[:1] == [name]]
        assert len(printed) == 1, (workload, name, len(printed))
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, text
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == expected
    units = {entry["name"]: entry["unit"] for entry in
             document["end_to_end"] + document["per_layer"]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] != 0, (workload, name)
    return result


def test_run_everything_smoke() -> None:
    """Seed 0, every workload, untraced and traced, via the one command;
    the saved file compares equal to itself."""
    from run import WORKLOADS
    document = manifest()
    with tempfile.TemporaryDirectory(dir=ROOT_DIR,
                                     prefix=".bench_test_") as directory:
        saved = Path(directory) / "results.json"
        done = run("--smoke", "--seed", "0", "--out", str(saved))
        assert done.returncode == 0, done.stdout + done.stderr
        results = json.loads(saved.read_text())
        seen = [(entry["workload"], entry["trace"])
                for entry in results["runs"]]
        assert seen == [(name, trace) for name in WORKLOADS
                        for trace in (0, 1)]
        for name in WORKLOADS:
            assert done.stdout.count(f"workload={name} ") == 2
        import compare
        assert compare.compare(str(saved), str(saved), document) == 0
    vm_churn = next(entry for entry in results["runs"]
                    if entry["workload"] == "vm_churn" and entry["trace"])
    assert vm_churn["metrics"]["controller.calls"]["value"] == 0
    chaos, clean = (next(
        entry for entry in results["runs"]
        if entry["workload"] == name and entry["trace"])["metrics"]
        ["controller.scalar_replay_share"]["value"]
        for name in ("serve_chaos", "serve_clean"))
    assert (chaos, clean) == (1.0, 0.0)


def test_second_seed_traced_spans() -> None:
    """Seed 1, every workload traced: the report is complete, parents
    exist, and no span's children outlast it."""
    from run import WORKLOADS
    document = manifest()
    with tempfile.TemporaryDirectory(dir=ROOT_DIR,
                                     prefix=".bench_test_") as directory:
        spans_path = Path(directory) / "spans.json"
        for workload in WORKLOADS:
            done = run("--workload", workload, "--smoke", "--seed", "1",
                       "--trace", "1", "--trace-out", str(spans_path))
            assert done.returncode == 0, done.stdout + done.stderr
            _check_report(done.stdout, workload, 1, 1, document)
            trace = json.loads(spans_path.read_text())
            busy = {}
            children: dict[int, float] = {}
            for span_id, parent, name, _, start, end, busy_s in \
                    trace["spans"]:
                assert span_id not in busy
                assert 0 <= busy_s <= (end - start) * (1 + 1e-9) + 1e-9
                busy[span_id] = busy_s
                children[parent] = children.get(parent, 0.0) + busy_s
            for parent, total in children.items():
                if parent == -1:
                    continue  # roots hang off the stack's base frame
                assert parent in busy, (workload, parent)
                assert total <= busy[parent] * (1 + 1e-9) + 1e-9, \
                    (workload, parent)
            assert any(name == "root" for _, _, name, *_ in trace["spans"])


def test_untraced_reports_second_seed() -> None:
    document = manifest()
    for name in ("datapath_cold", "serve_clean"):
        done = run("--workload", name, "--smoke", "--seed", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        _check_report(done.stdout, name, 1, 0, document)


def test_verdicts() -> None:
    from compare import verdict
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "ok"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.10) \
        == "worse"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.10) \
        == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert verdict(noisy, [v * 1.2 for v in noisy], "lower", 0.10) \
        == "unresolved"
    assert verdict(noisy, [v * 0.4 for v in noisy], "lower", 0.10) == "ok"


def test_refuses_to_run_without_the_program() -> None:
    """With only BENCHMARK.json and bench/ present there is nothing to
    measure: non-zero exit and no result line."""
    with tempfile.TemporaryDirectory(dir=ROOT_DIR,
                                     prefix=".bench_test_") as directory:
        bare = Path(directory)
        shutil.copy(ROOT_DIR / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("--workload", "datapath_hot", "--seed", "0", "--seconds",
                   "1", "--trace", "0", cwd=bare,
                   script=bare / "bench" / "run.py")
        assert done.returncode != 0
        assert not done.stdout.strip().endswith("}")


if __name__ == "__main__":
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_") and callable(test):
            print(f"{test_name} ...", flush=True)
            test()
    print("bench self-test: ok")
