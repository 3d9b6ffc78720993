"""Typed event tracing: a bounded ring buffer of datapath events.

Every interesting state change in the DTL datapath — an SMC fill, a
migration abort, a rank power transition — can be recorded as a
:class:`TraceEvent` in an :class:`EventTrace`.  The trace is a ring
buffer: it keeps the most recent ``capacity`` events and counts what it
drops, so it is safe to leave attached during long simulations.  The
batch datapath hands its per-access events over as columns, which stay
columns until somebody reads the ring (docs/TELEMETRY.md).
"""

from __future__ import annotations

import enum
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

DEFAULT_TRACE_CAPACITY = 4096


class EventKind(enum.Enum):
    """Every event type the DTL datapath can emit."""

    ACCESS = "access"
    SMC_FILL = "smc_fill"
    SMC_EVICT = "smc_evict"
    SMC_INVALIDATE = "smc_invalidate"
    MIGRATION_SUBMIT = "migration_submit"
    MIGRATION_ABORT = "migration_abort"
    MIGRATION_REQUEUE = "migration_requeue"
    MIGRATION_RETIRE = "migration_retire"
    MIGRATION_CANCEL = "migration_cancel"
    POWER_TRANSITION = "power_transition"
    SR_ENTER = "sr_enter"
    SR_EXIT = "sr_exit"
    WINDOW_CLOSE = "window_close"
    FAULT_INJECTED = "fault_injected"
    ECC_ERROR = "ecc_error"


@dataclass
class TraceEvent:
    """One recorded event.

    Attributes:
        kind: Event type.
        time: Simulated time of the event, in the clock's integer
            nanoseconds (0 for events no clock reading goes with).
        data: Free-form event payload (DSNs, rank IDs, penalties...).
    """

    kind: EventKind
    time: int = 0
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {"kind": self.kind.value, "time": self.time, **self.data}


class _EventBlock:
    """A run of same-kind, same-time events held as columns.

    Row ``i`` of every column is event ``i``'s payload field of that
    name.  The block owns its arrays (copied on entry), so neither the
    producer's buffers nor a longer batch behind them stay reachable.
    """

    __slots__ = ("kind", "time", "columns", "size")

    def __init__(self, kind: EventKind, time: int,
                 columns: dict[str, np.ndarray], size: int):
        self.kind = kind
        self.time = time
        self.columns = columns
        self.size = size

    def events(self) -> list[TraceEvent]:
        """One :class:`TraceEvent` per row, payloads as Python scalars."""
        names = tuple(self.columns)
        rows = zip(*(column.tolist() for column in self.columns.values()))
        return [TraceEvent(self.kind, self.time, dict(zip(names, row)))
                for row in rows]


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` records.

    Events arrive one at a time (:meth:`record`) or as a columnar run
    (:meth:`record_tail`); each stays as it came until the ring is read,
    so recording builds no :class:`TraceEvent` objects.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        self.capacity = capacity
        # Oldest first, one segment per single event (a ``(kind, time,
        # data)`` row until the ring is read) or columnar block,
        # ``_held`` events in all.  Once they reach twice the capacity
        # the segments the readable window no longer needs leave in one
        # pass (:meth:`_trim`), so appending never rebuilds anything and
        # the ring holds at most a few ``capacity`` of events.
        self._segments: deque[tuple | _EventBlock] = deque()
        self._held = 0
        self._tally: TallyCounter = TallyCounter()
        self.recorded = 0
        self._cleared_at = 0

    @property
    def enabled(self) -> bool:
        """False on a disabled trace; producers may skip event building."""
        return True

    @staticmethod
    def disabled() -> "NullEventTrace":
        """A trace that records nothing (telemetry fast path).

        Producers that check :attr:`enabled` can skip building event
        payloads entirely; producers that do not still pay only a no-op
        call.  The buffer stays empty and every tally reads zero.
        """
        return NullEventTrace()

    def record(self, kind: EventKind, time: int = 0, **data: Any) -> None:
        """Append one event; oldest events fall off past ``capacity``."""
        # ``_value_`` is ``value`` without the enum property's call.
        self._tally[kind._value_] += 1
        self.recorded += 1
        self._segments.append((kind, time, data))
        self._held += 1
        if self._held >= 2 * self.capacity:
            self._trim()

    def record_tail(self, kind: EventKind, time: int = 0,
                    **columns: np.ndarray) -> None:
        """Append one event per row of ``columns``, all at ``time``.

        Equivalent to ``record(kind, time, name=column[i], ...)`` for
        each row ``i`` in order, without building the events: the batch
        datapath produces runs far longer than the ring, so only copies
        of the trailing ``min(rows, capacity)`` rows are kept, as one
        block, and turned into :class:`TraceEvent` objects when the ring
        is read.  Tallies advance by the full row count.
        """
        lengths = set(map(len, columns.values()))
        if len(lengths) != 1:
            raise ValueError(
                "record_tail needs one or more equally long columns, got "
                f"lengths {sorted(lengths)}")
        count = lengths.pop()
        if not count:
            return
        self._tally[kind._value_] += count
        self.recorded += count
        keep = min(count, self.capacity)
        if keep:
            self._segments.append(_EventBlock(kind, time, {
                name: np.array(column[count - keep:])
                for name, column in columns.items()}, keep))
            self._held += keep
            if self._held >= 2 * self.capacity:
                self._trim()

    def _trim(self) -> None:
        """Release whole segments from the old end while the ones behind
        them fill the window; a partly visible oldest segment is cut on
        read."""
        segments = self._segments
        while segments:
            first = segments[0]
            size = first.size if type(first) is _EventBlock else 1
            if self._held - size < self.capacity:
                break
            segments.popleft()
            self._held -= size

    @property
    def dropped(self) -> int:
        """Events that fell off the ring buffer."""
        return self.recorded - len(self)

    def events(self, kind: EventKind | None = None) -> list[TraceEvent]:
        """Buffered events, optionally filtered to one kind."""
        held: list[TraceEvent] = []
        for segment in self._segments:
            if type(segment) is _EventBlock:
                held.extend(segment.events())
            else:
                held.append(TraceEvent(*segment))
        window = held[len(held) - len(self):]
        if kind is None:
            return window
        return [event for event in window if event.kind is kind]

    def counts_by_kind(self) -> dict[str, int]:
        """Total occurrences per event kind (including dropped events)."""
        return {kind: count for kind, count in sorted(self._tally.items())}

    def to_list(self) -> list[dict[str, Any]]:
        """Buffered events as JSON-ready dicts (oldest first)."""
        return [event.to_dict() for event in self.events()]

    def clear(self) -> None:
        """Drop buffered events (totals in :meth:`counts_by_kind` remain)."""
        self._segments.clear()
        self._held = 0
        self._cleared_at = self.recorded

    def __len__(self) -> int:
        return min(self.capacity, self.recorded - self._cleared_at)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())


class NullEventTrace(EventTrace):
    """An :class:`EventTrace` that drops everything.

    Stands in wherever a trace is expected but tracing is off; recording
    is a no-op and all read-backs are empty/zero.
    """

    def __init__(self) -> None:
        super().__init__(capacity=0)

    @property
    def enabled(self) -> bool:
        return False

    def record(self, kind: EventKind, time: int = 0, **data: Any) -> None:
        pass

    def record_tail(self, kind: EventKind, time: int = 0,
                    **columns: np.ndarray) -> None:
        pass


__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "EventKind",
    "TraceEvent",
    "EventTrace",
    "NullEventTrace",
]
