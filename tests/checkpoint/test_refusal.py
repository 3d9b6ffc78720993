"""Every CLI resume path refuses a bad checkpoint file the same way.

Four kinds of bad file — one written by the previous format version, a
truncated one, a bit-flipped one and a file that is no checkpoint at
all — meet the two CLI resume paths: ``repro exp --resume`` (the
stepped-run route every ``--checkpoint --resume`` command takes) and
``repro serve --resume``.  Each ends in one ``repro <command>: ...`` line
and a non-zero exit, before anything runs or listens.  A version bump
is covered here: the stale file is stamped ``CHECKPOINT_VERSION - 1``.
``DtlServer.restore`` meets the same files in
``tests/server/test_checkpoint.py``.
"""

import re
import shutil

import pytest

from repro.checkpoint import CHECKPOINT_VERSION
from repro.cli import main

from tests.server.test_checkpoint import (flip_a_bit, not_a_checkpoint,
                                          stale_version, truncate_half,
                                          write_good)

#: The registered run ``exp --resume`` steps (its checkpoint kind).
EXPERIMENT = "rank_sweep"

#: Each kind spoils a copy of a good file (or overwrites it) and names
#: the refusal it meets.
KINDS = {
    "stale-version": (stale_version,
                      f"version {CHECKPOINT_VERSION - 1}, .* "
                      f"{CHECKPOINT_VERSION}"),
    "truncated": (truncate_half, "not a checkpoint"),
    "bit-flipped": (flip_a_bit, "integrity|not a checkpoint|corrupt"),
    "not-a-checkpoint": (not_a_checkpoint, "not a checkpoint"),
}

#: Each path's command line, resuming from ``{}``.
PATHS = {
    "exp": ["exp", "--name", EXPERIMENT, "--checkpoint", "{}", "--resume"],
    "serve": ["serve", "--port", "0", "--checkpoint", "{}", "--resume"],
}


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """One valid checkpoint per resume path's kind."""
    directory = tmp_path_factory.mktemp("good")
    experiment = str(directory / "exp.ckpt")
    assert main(["exp", "--name", EXPERIMENT,
                 "--checkpoint", experiment]) == 0
    server = str(directory / "server.ckpt")
    write_good(server)
    return {"exp": experiment, "serve": server}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("command", sorted(PATHS))
def test_every_resume_path_refuses_a_bad_file_in_one_line(
        tmp_path, good_files, kind, command):
    spoil, match = KINDS[kind]
    bad = str(tmp_path / "bad.ckpt")
    shutil.copyfile(good_files[command], bad)
    spoil(bad)
    with pytest.raises(SystemExit) as refusal:
        main([arg.format(bad) for arg in PATHS[command]])
    message = refusal.value.code
    # A string code is printed to stderr and exits with status 1.
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"repro {command}: ")
    assert re.search(match, message)
