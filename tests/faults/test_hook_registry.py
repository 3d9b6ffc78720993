"""Lint guard: every hook point has a catalog entry wired in the datapath.

This is the CI tripwire required by the faults subsystem: adding a
``HookPoint`` without a ``HOOK_CATALOG`` entry, or pointing an entry at
a module that no longer calls its injector method, fails the build.
"""

from pathlib import Path

from repro.faults.hooks import HOOK_CATALOG, HookPoint
from repro.faults.injector import FaultInjector

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestHookCatalog:
    def test_catalog_covers_every_hook_point_exactly(self):
        assert set(HOOK_CATALOG) == set(HookPoint)

    def test_entries_are_self_consistent(self):
        for point, info in HOOK_CATALOG.items():
            assert info.point is point
            assert info.description

    def test_every_method_exists_on_injector(self):
        for info in HOOK_CATALOG.values():
            assert callable(getattr(FaultInjector, info.method))

    def test_every_module_calls_its_method(self):
        for info in HOOK_CATALOG.values():
            module = REPO_ROOT / info.module
            assert module.is_file(), f"{info.module} missing for {info.point}"
            source = module.read_text()
            assert f".{info.method}(" in source, (
                f"{info.module} no longer calls {info.method} for "
                f"{info.point.value}")

    def test_access_path_hooks_have_a_batch_call_site(self):
        # access_batch serves an armed batch vectorised: each access-path
        # hook is consulted once per vector pass through its batch
        # method, wired in the same module as the per-access one.
        batched = {point for point, info in HOOK_CATALOG.items()
                   if info.batch_method is not None}
        assert batched == {HookPoint.CXL_ACCESS, HookPoint.SMC_LOOKUP,
                           HookPoint.DRAM_ACCESS}
        for point in batched:
            info = HOOK_CATALOG[point]
            assert callable(getattr(FaultInjector, info.batch_method))
            source = (REPO_ROOT / info.module).read_text()
            assert f".{info.batch_method}(" in source, (
                f"{info.module} no longer calls {info.batch_method} for "
                f"{point.value}")

    def test_every_call_site_sits_behind_the_guard(self):
        # Stronger than "the module mentions the guard": the nearest
        # enclosing ``if`` (by indentation) above each hook call must be
        # the `_faults is not None` check itself.
        methods = {(info.module, method)
                   for info in HOOK_CATALOG.values()
                   for method in (info.method, info.batch_method)
                   if method is not None}
        for module, method in sorted(methods):
            lines = (REPO_ROOT / module).read_text().splitlines()
            sites = [number for number, line in enumerate(lines)
                     if f"_faults.{method}(" in line]
            assert sites, f"{module} never calls {method}"
            for site in sites:
                indent = len(lines[site]) - len(lines[site].lstrip())
                guard = next(
                    line for line in reversed(lines[:site])
                    if line.lstrip().startswith("if ")
                    and len(line) - len(line.lstrip()) < indent)
                assert "_faults is not None" in guard, (
                    f"{module}:{site + 1} calls {method} outside the "
                    f"unarmed-path guard (found {guard.strip()!r})")

    def test_every_module_guards_the_unarmed_path(self):
        # The zero-overhead guarantee: each wired module must gate its
        # hook calls behind a `_faults is not None` check.
        for module in {info.module for info in HOOK_CATALOG.values()}:
            source = (REPO_ROOT / module).read_text()
            assert "_faults is not None" in source, (
                f"{module} lacks the unarmed-path guard")

    def test_hook_names_are_stable(self):
        # Telemetry keys (faults.injected.<name>) derive from these
        # values; renaming one silently breaks dashboards and baselines.
        assert {point.value for point in HookPoint} == {
            "cxl.access", "smc.lookup", "dram.access", "migration.copy",
            "power.mpsm_exit", "sr.exit"}
