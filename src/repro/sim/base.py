"""The unified experiment surface every simulator conforms to.

An *experiment* is anything with a ``name``, a ``config`` dataclass, and
a ``run()`` that returns a result exposing ``to_record()`` — the shape
both the CLI and :mod:`repro.exec` dispatch through.  The protocols here
are structural (``typing.Protocol``): simulators do not inherit from
them, they simply fit.

:class:`~repro.seeded.SeededConfig`, the config-side counterpart, is
re-exported here for the simulators' configs.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.seeded import SeededConfig


@runtime_checkable
class ExperimentResult(Protocol):
    """Anything an experiment's ``run()`` may return."""

    def to_record(self) -> Any:
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`."""
        ...


@runtime_checkable
class Experiment(Protocol):
    """The canonical ``run(config) -> Result`` surface."""

    name: str
    config: Any

    def run(self) -> ExperimentResult:
        """Execute the experiment for ``self.config``."""
        ...


__all__ = ["Experiment", "ExperimentResult", "SeededConfig"]
