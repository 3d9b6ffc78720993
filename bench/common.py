"""Shared pieces of the benchmark: the repetition record, the workload
interface, and the few statistics helpers every file uses."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Rep:
    """What one measured repetition of a workload produced.

    Attributes:
        wall_s: Host seconds spent in the workload's operations.
        work: Units of work completed (accesses, or simulated seconds).
        ops: Operations attempted (requests, batch calls, sim steps).
        failed: Operations that failed or were refused.
        latencies_ms: Host latency of each operation.
        model_cost: The workload's simulated result over this repetition
            (deterministic for a seed, lower is better): nanoseconds per
            access, or DRAM energy as a percentage of the no-DTL baseline.
        counts: Work counts read from results inside the repetition
            (hits, fills, bytes), for the per-layer metrics.
    """

    wall_s: float
    work: float
    ops: int
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    model_cost: float | None = None
    counts: dict[str, float] = field(default_factory=dict)


#: Name of the span that wraps the measured part of a repetition.
ROOT = "root"


class Workload:
    """One named workload.  Subclasses fill in the hooks.

    ``setup`` must be deterministic for a seed: the runner builds two or
    three systems per run (the measured one; a twin for the output check;
    a reference for the untraced leg of a traced run) and relies on them
    starting in identical states.
    """

    name = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: What ``model_cost`` is on this workload.
    model_unit = ""
    # Operation ``i`` must be the same work in every repetition (the same
    # call, the same simulator step, the same place in a request
    # schedule): the runner reads it at its fastest occurrence.
    #: True when a repetition's operations run one after another, so its
    #: host time is the sum of their latencies plus the loop around them.
    sequential = True

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def setup(self):
        """Generate inputs, build and warm the system under test."""
        raise NotImplementedError

    def prepare(self, system, tracer=None) -> None:
        """Untimed work a repetition needs first (fresh run state, the
        next request lines); re-instruments what it rebuilds."""

    def measure(self, system, collect: bool, tracer) -> Rep:
        """The measured part of one repetition: a fixed amount of work."""
        raise NotImplementedError

    def rep(self, system, collect: bool = False, tracer=None) -> Rep:
        """One repetition; under a tracer the measured part is the root
        span.  ``collect`` also gathers the simulated result and the work
        counts (the first repetition on a system)."""
        self.prepare(system, tracer)
        measure = self.measure
        if tracer is not None:
            measure = tracer.wrap(ROOT, measure)
        return measure(system, collect, tracer)

    def instrument(self, system, tracer) -> None:
        """Shadow the system's layer boundaries with ``tracer``."""
        raise NotImplementedError

    def check(self, system, twin, first: Rep) -> list[str]:
        """Output checks; returns one line per failed check."""
        raise NotImplementedError

    def layer_counts(self, system, first: Rep) -> dict[str, float]:
        """Per-layer metrics read from public stats and results over the
        first repetition (the timed ones come from the tracer)."""
        return {}

    def checkpoint_probe(self, twin) -> tuple[dict[str, float], list[str]]:
        """``checkpoint.*`` metrics measured on the untraced twin, and any
        failed round-trip check."""
        return {}, []

    def close(self, system) -> None:
        """Release whatever ``setup`` opened (event loops, temp files)."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; degenerate for fewer than two samples."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (``q`` in 0..100)."""
    return float(np.percentile(values, q))
