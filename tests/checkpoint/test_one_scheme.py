"""Lint guard: ``repro.checkpoint``'s pickle is the only persistence scheme.

The server once carried a second, hand-written ``state_dict`` /
``load_state_dict`` scheme across 18 modules whose output was pickled
anyway.  This tripwire fails the build if one grows back, or if a module
outside the checkpoint container and the executor's result cache starts
serialising on its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

EXPLICIT_SCHEME = {"state_dict", "load_state_dict", "from_state",
                   "state_payload", "load_payload"}

#: The checkpoint container, the executor's on-disk result cache, and its
#: measurement of a task result's pickled size.
PICKLE_USERS = {"repro/checkpoint/state.py", "repro/exec/cache.py",
                "repro/exec/runner.py"}


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_no_explicit_state_scheme_under_src():
    offenders = [f"{name}:{node.lineno} def {node.name}"
                 for name, tree in modules()
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name in EXPLICIT_SCHEME]
    assert not offenders, offenders


def test_pickle_is_imported_only_by_the_container_and_the_executor():
    importers = set()
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {(node.module or "").split(".")[0]}
            else:
                continue
            if roots & {"pickle", "_pickle"}:
                importers.add(name)
    assert importers == PICKLE_USERS
