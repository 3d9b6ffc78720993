"""Typed event tracing: a bounded ring buffer of datapath events.

Every interesting state change in the DTL datapath — an SMC fill, a
migration abort, a rank power transition — can be recorded as a
:class:`TraceEvent` in an :class:`EventTrace`.  The trace is a ring
buffer: it keeps the most recent ``capacity`` events and counts what it
drops, so it is safe to leave attached during long simulations.
"""

from __future__ import annotations

import enum
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

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
        time: Event timestamp in the emitter's native unit (simulated
            seconds for power transitions, nanoseconds for accesses; the
            ``data`` dict says which when it matters).
        data: Free-form event payload (DSNs, rank IDs, penalties...).
    """

    kind: EventKind
    time: float = 0.0
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {"kind": self.kind.value, "time": self.time, **self.data}


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._tally: TallyCounter = TallyCounter()
        self.recorded = 0

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

    def record(self, kind: EventKind, time: float = 0.0,
               **data: Any) -> TraceEvent:
        """Append one event; oldest events fall off past ``capacity``."""
        event = TraceEvent(kind=kind, time=time, data=data)
        self._events.append(event)
        self._tally[kind.value] += 1
        self.recorded += 1
        return event

    def record_tail(self, kind: EventKind, count: int,
                    tail: list[TraceEvent]) -> None:
        """Account ``count`` events of one kind, buffering only ``tail``.

        The batch datapath produces runs of events far longer than the
        ring buffer; only the last ``capacity`` of a run could survive it
        anyway.  Callers therefore build just the trailing
        ``min(count, capacity)`` events and pass them here: the tally and
        ``recorded`` advance by the full ``count`` (so ``dropped`` and
        ``counts_by_kind`` match a sequence of :meth:`record` calls) while
        the buffer receives only ``tail``.
        """
        if count < len(tail):
            raise ValueError(
                f"tail of {len(tail)} events exceeds count {count}")
        self._events.extend(tail[-self.capacity:] if self.capacity else [])
        self._tally[kind.value] += count
        self.recorded += count

    @property
    def dropped(self) -> int:
        """Events that fell off the ring buffer."""
        return self.recorded - len(self._events)

    def events(self, kind: EventKind | None = None) -> list[TraceEvent]:
        """Buffered events, optionally filtered to one kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind is kind]

    def counts_by_kind(self) -> dict[str, int]:
        """Total occurrences per event kind (including dropped events)."""
        return {kind: count for kind, count in sorted(self._tally.items())}

    def to_list(self) -> list[dict[str, Any]]:
        """Buffered events as JSON-ready dicts (oldest first)."""
        return [event.to_dict() for event in self._events]

    def clear(self) -> None:
        """Drop buffered events (totals in :meth:`counts_by_kind` remain)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


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

    def record(self, kind: EventKind, time: float = 0.0,
               **data: Any) -> TraceEvent:
        return TraceEvent(kind=kind, time=time, data=data)

    def record_tail(self, kind: EventKind, count: int,
                    tail: list[TraceEvent]) -> None:
        pass


__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "EventKind",
    "TraceEvent",
    "EventTrace",
    "NullEventTrace",
]
