"""Package-surface tests: exports, errors, versioning, orphan modules."""

import ast
from pathlib import Path

import pytest

import repro
from repro import errors


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_exports(self):
        assert callable(repro.DtlController)
        assert callable(repro.CxlMemoryDevice)
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
        "how far Fig. 12 savings move per constant (ROADMAP item 3's "
        "cause-of-gap input for 'per-channel fixed overhead')",
    "repro.policies.dream":
        "in TournamentConfig.policies' default: every `repro tournament` "
        "runs it (registered on import of repro.policies)",
    "repro.policies.rank_aware":
        "in TournamentConfig.policies' default: every `repro tournament` "
        "runs it (registered on import of repro.policies)",
}


class TestNoOrphanModules:
    """Lint guard: no module under ``src/repro`` without traffic.

    An ``__init__`` re-export does not count as a use (a package lists
    what exists, not what is needed): ``from repro.exec import
    shard_tasks`` counts for ``repro.exec.sharding``, where the name is
    defined.  A module whose only importers are themselves unused is
    unused too, so a dead cluster cannot keep itself alive.
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
