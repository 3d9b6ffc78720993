"""Named metrics: counters, gauges, and fixed-bucket latency histograms.

The :class:`MetricsRegistry` is the DTL's single measurement substrate:
every subsystem registers its counters here under a dotted name
(``smc.l1.hits``, ``migration.aborts``, ...) and the registry can export
everything at once as a :class:`Snapshot`.  Metric objects are cheap
mutable cells — incrementing a counter is one attribute addition, so the
registry is safe to leave enabled on the access hot path.

Nothing in this module imports from :mod:`repro.core`; the core
subsystems depend on telemetry, never the other way around.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds (ns): spans an L1 SMC hit
#: (~0.7 ns) through a CXL round-trip with a table walk (~400 ns).
DEFAULT_LATENCY_BUCKETS_NS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0)


@functools.lru_cache(maxsize=64)
def _edges(bounds: tuple[float, ...]) -> np.ndarray:
    """``bounds`` as a read-only array, built once per distinct tuple.

    Kept outside :class:`Histogram` so the histogram's (pickled) fields
    stay the plain tuple ``to_dict`` labels its buckets from.
    """
    edges = np.array(bounds, dtype=np.float64)
    edges.setflags(write=False)
    return edges


#: What the null histogram's :meth:`Histogram.buckets_of` returns.
_NO_BUCKETS = np.empty(0, dtype=np.intp)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def set(self, value: int | float) -> None:
        """Overwrite the count (used by legacy stats-view setters)."""
        self.value = value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets, like Prometheus).

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str,
                 bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_NS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r} needs ascending, non-empty bounds")
        self.name = name
        self.bounds = tuple(float(bound) for bound in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def observe_batch(self, values: np.ndarray) -> None:
        """Record many samples in one vectorised pass.

        Bucket counts match a sequence of :meth:`observe` calls exactly
        (``np.searchsorted(side="left")`` is ``bisect_left``); ``total``
        accumulates in one addition, so it may differ from the sequential
        sum in the last ULPs.
        """
        values = np.asarray(values, dtype=np.float64)
        if len(values):
            self.fold(self.buckets_of(values), (float(values.sum()),))

    def buckets_of(self, values: np.ndarray) -> np.ndarray:
        """The bucket index of every sample in ``values``, for
        :meth:`fold`."""
        return _edges(self.bounds).searchsorted(values, side="left")

    def fold(self, buckets: np.ndarray, sums: Iterable[float]) -> None:
        """Record samples already bucketed by :meth:`buckets_of`: what
        :meth:`observe_batch` over consecutive non-empty slices of them
        records, one after the other.  ``sums`` are the slices' own
        sums, in order, and ``total`` advances by each in turn."""
        counts = self.counts
        for bucket, count in enumerate(np.bincount(buckets).tolist()):
            if count:
                counts[bucket] += count
        self.count += len(buckets)
        for total in sums:
            self.total += total

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation with labelled buckets."""
        labels = [f"le_{bound:g}" for bound in self.bounds] + ["overflow"]
        return {"count": self.count, "sum": self.total, "mean": self.mean,
                "buckets": dict(zip(labels, self.counts))}

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


@dataclass
class Snapshot:
    """One point-in-time export of a registry (plus optional context).

    Attributes:
        counters: Counter name -> value.
        gauges: Gauge name -> value.
        histograms: Histogram name -> bucket dict.
        events: Event kind -> occurrence count (from an
            :class:`~repro.telemetry.events.EventTrace`).
        detail: Structured extras that are not flat metrics (e.g.
            per-rank power-state residency).
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (what :meth:`to_json` serialises)."""
        return {"counters": dict(self.counters), "gauges": dict(self.gauges),
                "histograms": dict(self.histograms),
                "events": dict(self.events), "detail": dict(self.detail)}

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the snapshot as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class _NullCounter(Counter):
    """Counter that discards every update (telemetry fast path)."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass


class _NullGauge(Gauge):
    """Gauge that discards every update (telemetry fast path)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    """Histogram that discards every sample (telemetry fast path)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_batch(self, values: np.ndarray) -> None:
        pass

    def buckets_of(self, values: np.ndarray) -> np.ndarray:
        return _NO_BUCKETS

    def fold(self, buckets: np.ndarray, sums: Iterable[float]) -> None:
        pass


class MetricsRegistry:
    """Get-or-create store of named metrics.

    Names are namespaced with dots by convention.  Re-registering an
    existing name returns the same object; registering a name as two
    different kinds is an error.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        """False on the null registry; accounting can be skipped entirely."""
        return True

    @staticmethod
    def null() -> "NullMetricsRegistry":
        """A registry whose metrics discard every update.

        Hand this to a :class:`~repro.core.controller.DtlController` (or
        any subsystem) to remove per-access accounting from the hot path:
        every ``counter()``/``gauge()``/``histogram()`` call returns a
        shared no-op object, so subsystems keep their unconditional
        ``.inc()`` calls but nothing is stored.  All read-backs report
        zero / empty.
        """
        return NullMetricsRegistry()

    def _check_free(self, name: str, kind: dict) -> None:
        for store in (self._counters, self._gauges, self._histograms):
            if store is not kind and name in store:
                raise ConfigurationError(
                    f"metric {name!r} already registered as another kind")

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        if name not in self._counters:
            self._check_free(name, self._counters)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        if name not in self._gauges:
            self._check_free(name, self._gauges)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_NS,
                  ) -> Histogram:
        """Get or create the histogram called ``name``."""
        if name not in self._histograms:
            self._check_free(name, self._histograms)
            self._histograms[name] = Histogram(name, bounds)
        return self._histograms[name]

    # -- export ----------------------------------------------------------------

    def counter_values(self) -> dict[str, float]:
        """All counter values keyed by name."""
        return {name: counter.value
                for name, counter in sorted(self._counters.items())}

    def gauge_values(self) -> dict[str, float]:
        """All gauge values keyed by name."""
        return {name: gauge.value
                for name, gauge in sorted(self._gauges.items())}

    def histogram_values(self) -> dict[str, dict]:
        """All histograms keyed by name, in dict form."""
        return {name: histogram.to_dict()
                for name, histogram in sorted(self._histograms.items())}

    def snapshot(self, events: dict[str, int] | None = None,
                 detail: dict[str, Any] | None = None) -> Snapshot:
        """Export everything, optionally with event counts and detail."""
        return Snapshot(counters=self.counter_values(),
                        gauges=self.gauge_values(),
                        histograms=self.histogram_values(),
                        events=dict(events or {}),
                        detail=dict(detail or {}))


class NullMetricsRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` that records nothing.

    Every metric accessor returns a shared no-op object regardless of
    name, so subsystems written against the real registry run unchanged
    with zero accounting cost.  Exports are empty.
    """

    _COUNTER = _NullCounter("null")
    _GAUGE = _NullGauge("null")
    _HISTOGRAM = _NullHistogram("null")

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str) -> Counter:
        return self._COUNTER

    def gauge(self, name: str) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_NS,
                  ) -> Histogram:
        return self._HISTOGRAM


__all__ = [
    "DEFAULT_LATENCY_BUCKETS_NS",
    "Counter",
    "Gauge",
    "Histogram",
    "Snapshot",
    "MetricsRegistry",
    "NullMetricsRegistry",
]
