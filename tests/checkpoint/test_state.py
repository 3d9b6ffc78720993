"""The checkpoint container: round trips, versioning, integrity."""

import dataclasses
import pickle
import re
from pathlib import Path

import pytest

from repro.checkpoint import (CHECKPOINT_VERSION, Checkpoint,
                              CheckpointError, load_checkpoint, restore,
                              save_checkpoint, snapshot)


def test_snapshot_restore_round_trip():
    payload = {"a": [1, 2, 3], "b": {"nested": (4.5, "six")}}
    checkpoint = snapshot("demo", 7, payload, meta={"note": "x"})
    assert checkpoint.kind == "demo"
    assert checkpoint.step == 7
    assert checkpoint.version == CHECKPOINT_VERSION
    assert checkpoint.meta == {"note": "x"}
    restored = restore(checkpoint)
    assert restored == payload
    assert restored is not payload  # a private copy, not the original


def test_documented_version_is_the_code_version():
    """docs/CHECKPOINT.md names the format version a build writes."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "CHECKPOINT.md"
    stated = re.findall(r"`CHECKPOINT_VERSION`,\s+currently\s+(\d+)",
                        doc.read_text(encoding="utf-8"))
    assert stated == [str(CHECKPOINT_VERSION)]


def test_restore_preserves_aliasing():
    shared = [1, 2]
    restored = restore(snapshot("demo", 0, {"x": shared, "y": shared}))
    assert restored["x"] is restored["y"]


def test_content_hash_tracks_blob():
    a = snapshot("demo", 0, {"v": 1})
    b = snapshot("demo", 0, {"v": 1})
    c = snapshot("demo", 0, {"v": 2})
    assert a.content_hash == b.content_hash
    assert a.content_hash != c.content_hash


def test_unpicklable_state_fails_loudly():
    with pytest.raises(CheckpointError, match="not serialisable"):
        snapshot("demo", 0, {"fn": lambda: None})


def test_version_mismatch_refuses_restore():
    stale = dataclasses.replace(snapshot("demo", 0, {}),
                                version=CHECKPOINT_VERSION + 1)
    with pytest.raises(CheckpointError, match="version"):
        restore(stale)


def test_save_load_round_trip(tmp_path):
    path = str(tmp_path / "run.ckpt")
    checkpoint = snapshot("demo", 3, {"k": 1}, meta={"m": 2})
    save_checkpoint(checkpoint, path)
    loaded = load_checkpoint(path)
    assert loaded.kind == "demo" and loaded.step == 3
    assert loaded.meta == {"m": 2}
    assert loaded.blob == checkpoint.blob
    assert restore(loaded) == {"k": 1}


def test_load_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_load_non_checkpoint_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a pickle")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(str(path))
    path.write_bytes(pickle.dumps(({"format": "other"}, b"")))
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(str(path))


def test_load_rejects_corrupted_blob(tmp_path):
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(snapshot("demo", 1, {"k": 1}), path)
    with open(path, "rb") as handle:
        header, blob = pickle.load(handle)
    header["sha256"] = "0" * 64
    with open(path, "wb") as handle:
        pickle.dump((header, blob), handle)
    with pytest.raises(CheckpointError, match="integrity"):
        load_checkpoint(path)


def test_load_rejects_future_version(tmp_path):
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(snapshot("demo", 1, {"k": 1}), path)
    with open(path, "rb") as handle:
        header, blob = pickle.load(handle)
    header["version"] = CHECKPOINT_VERSION + 1
    with open(path, "wb") as handle:
        pickle.dump((header, blob), handle)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_save_is_atomic(tmp_path):
    # A save over an existing file leaves no temp droppings and the
    # destination is always a complete checkpoint.
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(snapshot("demo", 1, {"k": 1}), path)
    save_checkpoint(snapshot("demo", 2, {"k": 2}), path)
    assert load_checkpoint(path).step == 2
    assert list(tmp_path.iterdir()) == [tmp_path / "run.ckpt"]
