"""Package-surface tests: exports, errors, versioning, orphan modules."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro import errors


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_exports(self):
        assert callable(repro.DtlController)
        assert callable(repro.DtlConfig)
        assert callable(repro.DramGeometry)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestSubpackageExports:
    @pytest.mark.parametrize("module_name", [
        "repro.core", "repro.dram", "repro.cxl", "repro.host",
        "repro.workloads", "repro.sim", "repro.analysis", "repro.baselines",
        "repro.exec", "repro.faults", "repro.checkpoint", "repro.server",
        "repro.telemetry", "repro.policies",
    ])
    def test_all_lists_resolve(self, module_name):
        import importlib
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name) is not None, \
                f"{module_name}.{name} missing"


SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules nothing else in ``src/`` imports, and what needs each one.
#: A module that is not here must have an importer that is itself in use.
NO_IMPORTER_IN_SRC = {
    "repro.host.tracing":
        "DESIGN.md's Sec. 5.2 post-cache trace recorder (docs/API.md)",
    "repro.analysis.sensitivity":
        "benchmarks/test_fig12_powerdown.py's calibration-sensitivity row: "
        "how far Fig. 12 savings move per constant (ROADMAP item 13's "
        "cause-of-gap input for 'per-channel fixed overhead')",
    "repro.policies.dream":
        "in TournamentConfig.policies' default: every `repro tournament` "
        "runs it (registered on import of repro.policies)",
    "repro.policies.rank_aware":
        "in TournamentConfig.policies' default: every `repro tournament` "
        "runs it (registered on import of repro.policies)",
}

#: Public top-level classes and functions nothing else in ``src/``
#: refers to, and who calls each one.  A name that is not here must be
#: referenced in ``src/`` outside its own definition; a name here must
#: still have that caller outside ``src/``, or it goes.
NO_CALLER_IN_SRC = {
    "repro.analysis.area_power.sanity_check_40nm_scaling":
        "examples/capacity_planning.py and "
        "benchmarks/test_tab06_area_power.py (Table 6's 40 nm check)",
    "repro.analysis.sensitivity.savings_range":
        "benchmarks/test_fig12_powerdown.py's calibration-sensitivity row",
    "repro.analysis.sensitivity.sensitivity_grid":
        "benchmarks/test_fig12_powerdown.py's calibration-sensitivity row",
    "repro.checkpoint.stepping.run_to_step":
        "tests: the restore-at-step-k identity suite "
        "(tests/checkpoint/test_restore_identity.py)",
    "repro.dram.banks.RowBufferAnalyzer":
        "tests: the whole-trace row-buffer hit model "
        "(tests/dram/test_banks.py)",
    "repro.dram.geometry.geometry_for_capacity":
        "tests: capacity-to-geometry sizing (tests/dram/test_geometry.py)",
    "repro.errors.PerformanceWarning":
        "bench/wl_datapath.py silences it; it goes with the benchmark's "
        "move to access_batch (ROADMAP item 18)",
    "repro.host.tracing.TraceRecorder":
        "tests and docs/API.md: the Sec. 5.2 post-cache trace recorder",
    "repro.policies.dream.DreamRemapPolicy":
        "the registry: @register_policy, in TournamentConfig.policies' "
        "default",
    "repro.policies.rank_aware.RankAwareMigrationPolicy":
        "the registry: @register_policy, in TournamentConfig.policies' "
        "default",
    "repro.policies.protocol.available_policies":
        "tests and the CI chaos-smoke job: every registered policy must "
        "end the chaos soak ok",
    "repro.sim.combined.figure15_summary":
        "benchmarks/test_fig15_combined.py",
    "repro.sim.comparison.compare_policies":
        "benchmarks/test_comparison_ramzzz.py",
    "repro.sim.figures.figure11a_series":
        "tests: plot-ready Fig. 11a series (tests/sim/test_figures.py)",
    "repro.sim.figures.figure2_series":
        "tests: plot-ready Fig. 2 series (tests/sim/test_figures.py)",
    "repro.sim.rank_sweep.interleaving_comparison":
        "benchmarks/test_fig05_interleaving.py",
    "repro.sim.rank_sweep.mean_trace_driven_slowdown":
        "benchmarks/test_fig02_rank_sweep.py",
    "repro.sim.results.load_records":
        "tests: reads back what --output writes (tests/sim/test_results.py)",
    "repro.units.format_bytes":
        "examples/capacity_planning.py and benchmarks/ (Table 5 sizes)",
    "repro.workloads.cloudsuite.make_trace":
        "benchmarks/ (Table 4, Fig. 9, the segment-size ablation) and tests",
}

#: Where a name on :data:`NO_CALLER_IN_SRC` may find its caller.
OUTSIDE_SRC = ("tests", "benchmarks", "examples", "bench", ".github")


class TestNoOrphanModules:
    """Lint guard: no module, and no public top-level class or function,
    under ``src/repro`` without traffic.

    An ``__init__`` re-export does not count as a use (a package lists
    what exists, not what is needed): ``from repro.exec import
    run_tasks`` counts for ``repro.exec.runner``, where the name is
    defined.  A module whose only importers are themselves unused is
    unused too, so a dead cluster cannot keep itself alive.  A name
    counts as used when any ``src/`` module other than an ``__init__``
    mentions it (as a name, an attribute or an import) outside the
    name's own definition.
    """

    EXEMPT = ("__init__", "__main__", "cli")

    @pytest.fixture(scope="class")
    def trees(self):
        return {".".join(path.relative_to(SRC).with_suffix("").parts):
                ast.parse(path.read_text())
                for path in sorted(SRC.rglob("*.py"))}

    @staticmethod
    def imported_names(tree):
        """``(module, name)`` per absolute import (``name`` None for a
        plain ``import x``); the package uses no relative imports."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from ((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert not node.level, "relative import in src/"
                yield from ((node.module, alias.name)
                            for alias in node.names)

    def defining_module(self, trees, module, name):
        """The module file ``from module import name`` really reads."""
        if f"{module}.{name}" in trees:
            return f"{module}.{name}"
        if module in trees:
            return module
        init = f"{module}.__init__"
        if init not in trees:
            return None  # stdlib or third party
        for source, exported in self.imported_names(trees[init]):
            if exported == name and source != module:
                return self.defining_module(trees, source, name)
        return init

    @pytest.fixture(scope="class")
    def users(self, trees):
        """module -> the non-``__init__`` modules that import it."""
        users = {module: set() for module in trees}
        for user, tree in trees.items():
            if user.endswith("__init__"):
                continue
            for module, name in self.imported_names(tree):
                target = self.defining_module(trees, module, name)
                if target in users and target != user:
                    users[target].add(user)
        return users

    def test_every_module_has_a_live_importer_or_a_stated_reason(self, users):
        candidates = {module for module in users
                      if module.rsplit(".", 1)[-1] not in self.EXEMPT}
        orphans = set()
        while True:
            found = {module for module in candidates - orphans
                     if module not in NO_IMPORTER_IN_SRC
                     and not users[module] - orphans}
            if not found:
                break
            orphans |= found
        assert not orphans, sorted(orphans)

    def test_allowlist_names_only_modules_that_need_it(self, users):
        stale = {module: sorted(users.get(module, ["<no such module>"]))
                 for module in NO_IMPORTER_IN_SRC
                 if users.get(module, True)}
        assert not stale, stale

    @staticmethod
    def mentions(node):
        """Every identifier ``node`` refers to."""
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                yield child.id
            elif isinstance(child, ast.Attribute):
                yield child.attr
            elif isinstance(child, ast.ImportFrom):
                yield from (alias.name for alias in child.names)

    @pytest.fixture(scope="class")
    def unreferenced(self, trees):
        """``module.name`` of each public top-level class or function
        no other part of ``src/`` mentions."""
        definitions = {}
        used = set()
        for module, tree in trees.items():
            if module.endswith("__init__"):
                continue
            for node in tree.body:
                own = None
                if (isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    own = node.name
                    definitions[f"{module}.{own}"] = own
                used.update(name for name in self.mentions(node)
                            if name != own)
        return {qualified for qualified, name in definitions.items()
                if name not in used}

    def test_every_public_name_has_a_caller_or_a_stated_reason(
            self, unreferenced):
        missing = sorted(unreferenced - NO_CALLER_IN_SRC.keys())
        assert not missing, missing

    def test_name_allowlist_is_current(self, unreferenced):
        """Each allowlisted name is still unused in ``src/`` and still
        called from outside it (this file does not count)."""
        root = SRC.parent
        outside = " ".join(
            path.read_text() for folder in OUTSIDE_SRC
            for path in sorted((root / folder).rglob("*"))
            if path.suffix in (".py", ".yml")
            and path != Path(__file__).resolve())
        stale = sorted(NO_CALLER_IN_SRC.keys() - unreferenced)
        assert not stale, f"used in src/ (or gone): {stale}"
        uncalled = sorted(
            qualified for qualified in NO_CALLER_IN_SRC
            if not re.search(rf"\b{qualified.rsplit('.', 1)[1]}\b",
                             outside))
        assert not uncalled, f"no caller anywhere, delete: {uncalled}"


class TestErrorHierarchy:
    @pytest.mark.parametrize("error_type", [
        errors.ConfigurationError, errors.AddressError,
        errors.TranslationError, errors.AllocationError,
        errors.MigrationError, errors.PowerStateError,
    ])
    def test_all_inherit_repro_error(self, error_type):
        assert issubclass(error_type, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise error_type("boom")

    def test_consistency_error_in_hierarchy(self):
        from repro.core.checker import ConsistencyError
        assert issubclass(ConsistencyError, errors.ReproError)

    def test_catchable_as_exception(self):
        assert issubclass(errors.ReproError, Exception)
