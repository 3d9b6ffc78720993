"""Stable hashing of experiment configs.

The on-disk result cache and the task labels both need a key that is
(a) identical across processes and interpreter runs — so ``hash()`` and
``id()`` are out — and (b) sensitive to every field of the config,
including nested dataclasses, so two configs that would simulate
different things can never collide onto one cache entry.

The canonical form is a JSON document: dataclasses become
``{"__dataclass__": "module.QualName", fields...}`` with fields sorted,
tuples become lists, numpy scalars become Python scalars, and floats are
serialised through ``repr`` (via JSON) so the full precision
participates in the key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serialisable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {name: canonical(getattr(value, name))
                for name in sorted(f.name for f in
                                   dataclasses.fields(value))}
        body["__dataclass__"] = (f"{type(value).__module__}."
                                 f"{type(value).__qualname__}")
        return body
    if isinstance(value, dict):
        return {str(key): canonical(item)
                for key, item in sorted(value.items(), key=lambda kv:
                                        str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item") and callable(value.item):
        # numpy scalar -> native Python scalar.
        return value.item()
    if isinstance(value, type):
        return f"{value.__module__}.{value.__qualname__}"
    # Last resort: a repr is stable for simple value objects; anything
    # with a default object repr (memory address) is rejected so cache
    # keys can never silently depend on process state.
    text = repr(value)
    if " at 0x" in text:
        raise TypeError(f"cannot canonicalise {type(value).__name__!r} "
                        "for a stable config hash")
    return text


def stable_hash(value: Any) -> str:
    """Hex digest of the canonical form of ``value``."""
    document = json.dumps(canonical(value), sort_keys=True,
                          separators=(",", ":"))
    return hashlib.sha256(document.encode()).hexdigest()


def task_key(experiment: str, config: Any) -> str:
    """Cache key for running ``experiment`` on ``config``.

    The config is the whole identity of a run: anything that changes the
    result (seed, fault plan, policy) is a field of it.  The format is
    pinned byte for byte (``tests/exec/test_hashing.py``), so existing
    cached results stay addressable.
    """
    return f"{experiment}-{stable_hash(config)[:32]}"


def derive_seed(base_seed: int, *parts: Any) -> int:
    """Deterministic per-task seed from a base seed and task identity.

    Stable across processes and runs (unlike ``hash()``); the result is
    a non-negative 31-bit integer usable with every RNG in the package.
    """
    text = json.dumps([int(base_seed), [canonical(part) for part in parts]],
                      sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


__all__ = ["canonical", "stable_hash", "task_key", "derive_seed"]
