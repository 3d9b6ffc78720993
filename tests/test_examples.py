"""Smoke tests: every shipped example, and the README's Quickstart,
runs to completion."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name: str, *args: str, timeout: float = 300.0):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)


def readme_quickstart() -> str:
    """The first ``python`` code block under the README's Quickstart."""
    section = (ROOT / "README.md").read_text().split(
        "\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "Final rank census" in result.stdout

    def test_readme_quickstart(self):
        result = subprocess.run([sys.executable, "-c", readme_quickstart()],
                                capture_output=True, text=True, timeout=300.0)
        assert result.returncode == 0, result.stderr
        assert "PowerState.MPSM" in result.stdout

    def test_capacity_planning(self):
        result = run_example("capacity_planning.py", "256")
        assert result.returncode == 0, result.stderr
        assert "Controller @7nm" in result.stdout

    def test_rank_retirement(self):
        result = run_example("rank_retirement.py")
        assert result.returncode == 0, result.stderr
        assert "verified reachable" in result.stdout

    @pytest.mark.slow
    def test_vm_consolidation_quick(self):
        result = run_example("vm_consolidation.py", "--quick",
                             timeout=500.0)
        assert result.returncode == 0, result.stderr
        assert "DRAM energy savings" in result.stdout

    @pytest.mark.slow
    def test_hotness_selfrefresh(self):
        result = run_example("hotness_selfrefresh.py", "208gb",
                             timeout=500.0)
        assert result.returncode == 0, result.stderr
        assert "Stable-phase savings" in result.stdout

    @pytest.mark.slow
    def test_datacenter_tco(self):
        result = run_example("datacenter_tco.py", "2", timeout=500.0)
        assert result.returncode == 0, result.stderr
        assert "annual cost saved" in result.stdout
