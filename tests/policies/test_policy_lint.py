"""Lint guard: policy modules stay behind the decision-surface boundary.

Policies decide *which* ranks to park, migrate, or search — the hosts in
:mod:`repro.core` own *how*.  A policy module that imports controller,
SMC, allocator, or migration internals couples decisions to mechanism
and silently bypasses the ``RankStats``/``ColdSearch`` surfaces, so this
suite walks every module under ``src/repro/policies`` with ``ast`` and
fails the build on any import outside the allowlist (mirroring the
faults hook-registry lint in ``tests/faults/test_hook_registry.py``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from repro.policies import POLICIES, available_policies

PACKAGE_DIR = (Path(__file__).resolve().parents[2]
               / "src" / "repro" / "policies")

#: Only these non-stdlib roots may be imported by a policy module.
ALLOWED_MODULES = {
    "numpy",
    "repro.units",
    "repro.errors",
    "repro.seeded",
    "repro.dram.power",
}
#: Intra-package imports are always fine.
ALLOWED_PREFIXES = ("repro.policies",)

#: Everything a policy must never touch (mechanism, not decisions).
FORBIDDEN_ROOTS = ("repro.core", "repro.sim", "repro.host", "repro.cxl",
                   "repro.faults", "repro.exec", "repro.telemetry")


def policy_modules() -> list[Path]:
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE_DIR}"
    return modules


def imported_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, (
                f"{path.name}: relative imports hide the dependency "
                "from this lint; use absolute ones")
            names.add(node.module)
    return names


def is_allowed(name: str) -> bool:
    root = name.split(".")[0]
    if root in sys.stdlib_module_names:
        return True
    if name in ALLOWED_MODULES:
        return True
    return name.startswith(ALLOWED_PREFIXES)


class TestImportBoundary:
    @pytest.mark.parametrize("path", policy_modules(),
                             ids=lambda path: path.name)
    def test_only_allowlisted_imports(self, path):
        offending = {name for name in imported_names(path)
                     if not is_allowed(name)}
        assert not offending, (
            f"{path.name} imports {sorted(offending)}; policies may only "
            f"use the stdlib, numpy, and {sorted(ALLOWED_MODULES)} — "
            "decisions go through RankStats/ColdSearch, not host internals")

    @pytest.mark.parametrize("path", policy_modules(),
                             ids=lambda path: path.name)
    def test_never_reaches_into_mechanism(self, path):
        # Redundant with the allowlist, but states the intent directly:
        # controller/SMC/simulator internals are off limits by name.
        for name in imported_names(path):
            assert not name.startswith(FORBIDDEN_ROOTS), (
                f"{path.name} imports {name}, which is host mechanism")


class TestRegistry:
    def test_all_builtin_policies_registered(self):
        assert {"paper", "rank_aware", "dream", "adaptive"} \
            <= set(available_policies())

    def test_names_match_registry_keys(self):
        for name, cls in POLICIES.items():
            assert cls.name == name
