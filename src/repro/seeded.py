"""The config-side counterpart of the experiment surface.

A leaf module (standard library only) so every layer's config — the
policy bag under ``repro.core``, the fault and server configs the
experiment registry imports, the simulators' own — can inherit one
``replace`` / ``with_seed`` without an import cycle.
"""

from __future__ import annotations

import dataclasses
from typing import Any


class SeededConfig:
    """Mixin for frozen config dataclasses: variants are derived via
    :func:`dataclasses.replace`, so fan-out code (fleet nodes, sweeps)
    can never hand-copy fields and silently drop a newly added one."""

    def replace(self, **changes: Any):
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]

    def with_seed(self, seed: int):
        """A copy of this config that only differs in its ``seed``."""
        return dataclasses.replace(self, seed=seed)  # type: ignore[type-var]


__all__ = ["SeededConfig"]
