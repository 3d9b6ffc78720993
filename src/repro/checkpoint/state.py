"""The checkpoint container: versioned, content-hashed state blobs.

A :class:`Checkpoint` wraps one pickled run-state payload together with
the format version, the experiment kind, the step count at capture, and
the SHA-256 of the blob.  The hash is stored in the file header and
checked on load, so a corrupted blob is refused instead of restored
(see docs/CHECKPOINT.md).

Pickle is the serialisation substrate deliberately: the controller
object graph is cycle- and alias-heavy (a migration-request handle
points back at the engine whose table it reads, both policy hosts share
one plug-in instance, a simulator's run state shares its RNG with the
workload drifters), and pickle's memo preserves every one of those
identities with no fix-up after load: nothing under :mod:`repro.core`
defines ``__setstate__``.  It is the repo's only persistence scheme:
experiments and the server's drain checkpoint both come through here.

Checkpoints are *not* a cross-version interchange format: a blob is
only guaranteed to load in the repo revision that wrote it, and
:data:`CHECKPOINT_VERSION` gates every restore so a stale file fails
loudly instead of silently misbehaving.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any

#: Format version; bump whenever the serialised state layout changes.
CHECKPOINT_VERSION = 17

#: Identifies a checkpoint file's header dict on disk.
_FILE_FORMAT = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint could not be created, loaded, or restored."""


@dataclass(frozen=True)
class Checkpoint:
    """One captured run state.

    Attributes:
        kind: Experiment name the state belongs to (registry key).
        step: Number of ``advance()`` calls completed at capture time.
        blob: The pickled payload.
        version: Format version the blob was written with.
        meta: Free-form context (config hash, capture host, ...).
    """

    kind: str
    step: int
    blob: bytes
    version: int = CHECKPOINT_VERSION
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def content_hash(self) -> str:
        """SHA-256 of the blob; written to the file header, checked on load."""
        return hashlib.sha256(self.blob).hexdigest()


def snapshot(kind: str, step: int, payload: Any,
             meta: dict[str, Any] | None = None) -> Checkpoint:
    """Capture ``payload`` (a stepper's run state) as a checkpoint."""
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"run state of {kind!r} is not serialisable: {exc}") from exc
    return Checkpoint(kind=kind, step=step, blob=blob, meta=dict(meta or {}))


def restore(checkpoint: Checkpoint) -> Any:
    """Reconstruct the run state captured by :func:`snapshot`.

    Raises:
        CheckpointError: on a version mismatch or a corrupt blob.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} != supported "
            f"{CHECKPOINT_VERSION}; re-run from scratch")
    try:
        return pickle.loads(checkpoint.blob)
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint blob: {exc}") from exc


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write a checkpoint to ``path`` atomically (tmp file + rename)."""
    header = {
        "format": _FILE_FORMAT,
        "version": checkpoint.version,
        "kind": checkpoint.kind,
        "step": checkpoint.step,
        "sha256": checkpoint.content_hash,
        "meta": dict(checkpoint.meta),
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump((header, checkpoint.blob), handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises:
        CheckpointError: when the file is not a checkpoint, was written
            by a different format version, or fails its integrity hash.
    """
    try:
        with open(path, "rb") as handle:
            header, blob = pickle.load(handle)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointError(f"{path} is not a checkpoint file: {exc}") \
            from exc
    if not isinstance(header, dict) or header.get("format") != _FILE_FORMAT:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {header.get('version')}, "
            f"this build supports {CHECKPOINT_VERSION}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(f"{path} failed its integrity hash")
    return Checkpoint(kind=header["kind"], step=header["step"], blob=blob,
                      version=header["version"],
                      meta=dict(header.get("meta", {})))


__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "snapshot",
    "restore",
    "save_checkpoint",
    "load_checkpoint",
]
