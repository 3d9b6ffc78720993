"""Atomic segment-migration engine (Section 4.2).

A segment migration is internally broken into cacheline-sized copies.  Each
channel has a *foreground request queue* and a *migration queue*; migration
lines are issued only when the channel's foreground queue is empty, so
foreground traffic always has priority.

Write-conflict protocol (verbatim from the paper):

* Foreground write to a segment **not** being migrated — proceeds normally.
* Write to a migrating segment whose **completion bit is set** — routed to
  the new DSN (the copy is finished, only the mapping update is pending).
* Write to a line **not yet copied** — proceeds with the original DSN.
* Write to a line **already copied** — the whole in-progress request is
  aborted, its counter reset, and the copy retried.  After
  ``max_retries`` aborts the request is moved to the tail of the
  migration queue for re-execution.

Correctness holds because foreground requests always outrank migration
requests.
"""

from __future__ import annotations

import enum
import sys
import weakref
from typing import Callable, Iterable

import numpy as np

from repro.core.addressing import DeviceAddressLayout, all_distinct
from repro.dram.geometry import DramGeometry
from repro.errors import AddressError, MigrationError
from repro.telemetry import EventKind, EventTrace, MetricsRegistry
from repro.units import CACHELINE_BYTES

DEFAULT_MAX_RETRIES = 3

#: Rows of the outstanding-copy table (one column per slot).  ``SERIAL``
#: numbers copies in submission order; ``LIVE`` is 1 while the copy is
#: queued or in flight.
(_HSN, _OLD_DSN, _NEW_DSN, _LINES_DONE, _COMPLETION, _RETRIES, _REQUEUES,
 _SERIAL, _LIVE) = range(9)
_NO_SLOT = -1


class WriteRouting(enum.Enum):
    """Where a foreground write to a migrating segment must go."""

    OLD_DSN = "old"
    NEW_DSN = "new"


def _column(index: int, doc: str, flag: bool = False) -> property:
    """A :class:`MigrationRequest` field: one cell of its table row."""

    def read(self):
        table = self._engine._table
        if table.item(_SERIAL, self._slot) != self._serial:
            raise MigrationError(
                "migration request retired and its table row was reused")
        value = table.item(index, self._slot)
        return value != 0 if flag else value

    def write(self, value) -> None:
        read(self)  # refuses a reused row
        self._engine._table[index, self._slot] = value

    return property(read, write, doc=doc)


class MigrationRequest:
    """One segment copy: a handle on its row of the engine's table.

    Attributes:
        hsn: Host segment whose mapping will move.
        old_dsn: Source segment.
        new_dsn: Destination segment (already reserved in the allocator).
        lines_total: Cachelines in one segment.
        lines_done: Progress counter.
        completion: Set once all lines are copied; the mapping update is
            still pending at that point.
        retries: Abort count for the current execution attempt.
        requeues: Times the request went back to the tail of its queue.

    The fields read and write the engine's columns, so a handle obtained
    earlier sees the copy's progress.  After the copy retires (or is
    cancelled) its handles keep answering with the final values until a
    later submission reuses the row; from then on they raise
    ``MigrationError``.  Handles of the same copy compare equal.
    """

    __slots__ = ("_engine", "_slot", "_serial")

    def __init__(self, engine: "MigrationEngine", slot: int):
        self._engine = engine
        self._slot = slot
        self._serial = engine._table.item(_SERIAL, slot)

    hsn = _column(_HSN, "Host segment whose mapping will move.")
    old_dsn = _column(_OLD_DSN, "Source segment.")
    new_dsn = _column(_NEW_DSN, "Destination segment.")
    lines_done = _column(_LINES_DONE, "Progress counter.")
    completion = _column(_COMPLETION, "All lines copied, remap pending.",
                         flag=True)
    retries = _column(_RETRIES, "Aborts of the current attempt.")
    requeues = _column(_REQUEUES, "Moves to the tail of the queue.")

    @property
    def lines_total(self) -> int:
        """Cachelines in one segment."""
        return self._engine.lines_per_segment

    def __eq__(self, other) -> bool:
        return (isinstance(other, MigrationRequest)
                and self._engine is other._engine
                and self._slot == other._slot
                and self._serial == other._serial)

    def __hash__(self) -> int:
        return hash((id(self._engine), self._slot, self._serial))

    def __repr__(self) -> str:
        return (f"MigrationRequest(hsn={self.hsn}, old_dsn={self.old_dsn}, "
                f"new_dsn={self.new_dsn}, lines_done={self.lines_done}, "
                f"completion={self.completion}, retries={self.retries}, "
                f"requeues={self.requeues})")


class _SlotFifo:
    """One channel's migration queue: table slots in FIFO order."""

    def __init__(self) -> None:
        self._slots = np.empty(16, dtype=np.int64)
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def slots(self) -> np.ndarray:
        """The queued slots, oldest first (a view)."""
        return self._slots[self._head:self._tail]

    def extend(self, slots: np.ndarray) -> None:
        """Queue ``slots`` behind what is waiting."""
        waiting = len(self)
        if self._tail + len(slots) > len(self._slots):
            # Out of room at the end: move what waits to the front of a
            # buffer that holds it all (a larger one only if needed).
            capacity = len(self._slots)
            while capacity < waiting + len(slots):
                capacity *= 2
            grown = np.empty(capacity, dtype=np.int64)
            grown[:waiting] = self.slots()
            self._slots, self._head, self._tail = grown, 0, waiting
        self._slots[self._tail:self._tail + len(slots)] = slots
        self._tail += len(slots)

    def drop(self, count: int) -> None:
        """Take the ``count`` oldest slots off the queue."""
        self._head += count
        if self._head == self._tail:
            self._head = self._tail = 0

    def replace(self, slots: np.ndarray) -> None:
        """Make ``slots`` (a copy, not a view of this queue) the queue."""
        self._head = self._tail = 0
        self.extend(slots)


class MigrationStats:
    """Aggregate counters for the engine.

    A thin view over registry-backed counters (see
    :class:`~repro.core.segment_cache.CacheStats` for the pattern): the
    public attribute names are unchanged, but the numbers live in a
    :class:`~repro.telemetry.MetricsRegistry` so the controller's snapshot
    sees the same values.
    """

    _FIELDS = ("segments_migrated", "lines_copied", "aborts", "requeues",
               "foreground_redirects")

    def __init__(self, segments_migrated: int = 0, lines_copied: int = 0,
                 aborts: int = 0, requeues: int = 0,
                 foreground_redirects: int = 0,
                 registry: MetricsRegistry | None = None,
                 prefix: str = "migration"):
        registry = registry if registry is not None else MetricsRegistry()
        initial = (segments_migrated, lines_copied, aborts, requeues,
                   foreground_redirects)
        for name, value in zip(self._FIELDS, initial):
            counter = registry.counter(f"{prefix}.{name}")
            if value:
                counter.inc(value)
            object.__setattr__(self, f"_{name}", counter)

    def __getattr__(self, name: str):
        if name in MigrationStats._FIELDS:
            return getattr(self, f"_{name}").value
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if name in self._FIELDS:
            getattr(self, f"_{name}").set(value)
        else:
            object.__setattr__(self, name, value)

    @property
    def bytes_copied(self) -> int:
        """Total bytes moved (including aborted partial copies)."""
        return self.lines_copied * CACHELINE_BYTES

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)}"
                           for name in self._FIELDS)
        return f"MigrationStats({fields})"


#: Callback invoked when copies retire (copy finished, mapping update
#: due): ``on_complete(hsns, old_dsns, new_dsns)``, three int64 arrays —
#: every retire of one :meth:`MigrationEngine.advance` in (round,
#: channel) order: at most one per channel from a one-round pump, a
#: channel's whole queue in queue order from :meth:`MigrationEngine.drain`.
CompletionCallback = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


class WeakCompletion:
    """A bound method as a completion callback, held weakly.

    The controller hands the engine its own ``_on_migration_complete``;
    held strongly, that closes a reference cycle, and every finished
    controller would wait for the cyclic collector.  A bare
    ``weakref.WeakMethod`` cannot be pickled, so this pickles the bound
    method itself (pickle's memo keeps the target's identity) and
    rebuilds the weak reference on load.  A call after the target is
    gone does nothing.
    """

    __slots__ = ("_method",)

    def __init__(self, method: Callable) -> None:
        self._method = weakref.WeakMethod(method)

    def __call__(self, *args) -> None:
        method = self._method()
        if method is not None:
            method(*args)

    def __getstate__(self) -> tuple[Callable | None]:
        return (self._method(),)

    def __setstate__(self, state: tuple[Callable | None]) -> None:
        method, = state
        self._method = (weakref.WeakMethod(method) if method is not None
                        else lambda: None)


class MigrationEngine:
    """Per-channel migration queues with the atomic write-conflict protocol.

    Every outstanding copy is one slot of a columnar table (``hsn``,
    ``old_dsn``, ``new_dsn``, ``lines_done``, ``completion``, ``retries``,
    ``requeues``); a channel's queue is a FIFO of slots and a DSN-indexed
    array finds the slot copying a given source.  These are Section
    4.2's "outstanding migration registers" grown to hold a whole
    consolidation — *not* a Table 5 row (Table 5's "migration table" is
    the self-refresh policy's hot/cold plan).  :class:`MigrationRequest`
    is a handle on one slot.
    """

    def __init__(self, geometry: DramGeometry,
                 on_complete: CompletionCallback | None = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 registry: MetricsRegistry | None = None,
                 trace: EventTrace | None = None):
        self.geometry = geometry
        self.layout = DeviceAddressLayout(geometry)
        self.max_retries = max_retries
        self.on_complete = on_complete
        self.lines_per_segment = geometry.segment_bytes // CACHELINE_BYTES
        self._table = np.zeros((_LIVE + 1, 64), dtype=np.int64)
        self._table[_SERIAL] = _NO_SLOT
        # Slots below ``_rows`` have been handed out since the table was
        # last empty; ``_tracked`` of them hold outstanding copies.
        self._rows = 0
        self._tracked = 0
        self._next_serial = 0
        # Slots of the outstanding copies, oldest first; None = stale.
        self._order: np.ndarray | None = None
        self._queues = [_SlotFifo() for _ in range(geometry.channels)]
        # The slot each channel is copying (at most one in flight).
        self._inflight = [_NO_SLOT] * geometry.channels
        # Source DSN -> slot, for O(1) foreground conflict checks.
        self._slot_of = np.full(geometry.total_segments, _NO_SLOT,
                                dtype=np.int64)
        self._trace = trace
        self.stats = MigrationStats(registry=registry)
        # Armed fault injector (None = zero-overhead no-op hooks).
        self._faults = None

    def arm_faults(self, injector) -> None:
        """Attach (or with ``None`` detach) a fault injector."""
        self._faults = injector

    # -- the table ---------------------------------------------------------------

    def _claim(self, count: int) -> np.ndarray:
        """``count`` unused slots.  Fresh ones from the end while the
        table has room (restarting at slot 0 whenever nothing is
        outstanding), then retired ones, then a larger table."""
        if not self._tracked:
            self._rows = 0
        capacity = self._table.shape[1]
        if self._rows + count > capacity:
            retired = np.flatnonzero(self._table[_LIVE, :self._rows] == 0)
            if len(retired) >= count:
                return retired[:count]
            grown = np.zeros((len(self._table),
                              max(2 * capacity, self._rows + count)),
                             dtype=np.int64)
            grown[_SERIAL] = _NO_SLOT
            grown[:, :capacity] = self._table
            self._table = grown
        slots = np.arange(self._rows, self._rows + count)
        self._rows += count
        return slots

    def _slot_copying(self, dsn: int) -> int:
        """Slot of the copy whose source is ``dsn`` (``_NO_SLOT``: none)."""
        if 0 <= dsn < len(self._slot_of):
            return self._slot_of.item(dsn)
        return _NO_SLOT

    def _tracked_slots(self) -> np.ndarray:
        """Slots of all outstanding copies, in submission order (kept
        between changes: the power hosts, the checker and the server's
        leak audit ask between the datapath's calls)."""
        if self._order is None:
            slots = np.flatnonzero(self._table[_LIVE, :self._rows])
            self._order = slots[np.argsort(self._table[_SERIAL, slots],
                                           kind="stable")]
        return self._order

    def _untrack(self, slots: np.ndarray) -> None:
        """Drop ``slots`` from the books (their rows keep their values)."""
        self._table[_LIVE, slots] = 0
        self._slot_of[self._table[_OLD_DSN, slots]] = _NO_SLOT
        self._tracked -= len(slots)
        self._order = None

    # -- submission --------------------------------------------------------------

    def channel_of(self, dsn: int) -> int:
        """Channel owning segment ``dsn``."""
        return self.layout.channel_of_dsn(dsn)

    def submit(self, hsn: int, old_dsn: int, new_dsn: int) -> MigrationRequest:
        """Queue a copy of segment ``old_dsn`` to ``new_dsn``.

        Both DSNs must live on the same channel — migration never crosses
        channels because channel capacity is balanced by construction.
        """
        hsn, old_dsn, new_dsn = int(hsn), int(old_dsn), int(new_dsn)
        channel = self.channel_of(old_dsn)
        self._check(channel, old_dsn, new_dsn)
        slots = self._claim(1)
        self._fill(slots, hsn, old_dsn, new_dsn)
        self._queues[channel].extend(slots)
        if self._trace is not None:
            self._trace.record(EventKind.MIGRATION_SUBMIT, hsn=hsn,
                               old_dsn=old_dsn, new_dsn=new_dsn,
                               channel=channel)
        return MigrationRequest(self, slots.item(0))

    def submit_batch(self, hsns: list[int] | np.ndarray,
                     old_dsns: list[int] | np.ndarray,
                     new_dsns: list[int] | np.ndarray) -> None:
        """:meth:`submit` over parallel lists, in order.

        A run of same-channel pairs with distinct, in-range sources
        nobody is copying yet is appended to the table at once, its
        ``MIGRATION_SUBMIT`` events one columnar run.  Otherwise the
        first bad triple raises :meth:`submit`'s error with the triples
        before it queued.
        """
        count = len(hsns)
        if count > 1 and count == len(old_dsns) == len(new_dsns):
            hsns = np.asarray(hsns, dtype=np.int64)
            old_dsns = np.asarray(old_dsns, dtype=np.int64)
            new_dsns = np.asarray(new_dsns, dtype=np.int64)
            channels = self.channel_of(old_dsns)
            if ((channels == self.channel_of(new_dsns)).all()
                    and 0 <= int(old_dsns.min())
                    and int(old_dsns.max()) < len(self._slot_of)
                    and (self._slot_of[old_dsns] == _NO_SLOT).all()
                    and all_distinct(old_dsns)):
                slots = self._claim(count)
                self._fill(slots, hsns, old_dsns, new_dsns)
                for channel in np.flatnonzero(np.bincount(channels)).tolist():
                    self._queues[channel].extend(slots[channels == channel])
                if self._trace is not None:
                    self._trace.record_tail(
                        EventKind.MIGRATION_SUBMIT, hsn=hsns,
                        old_dsn=old_dsns, new_dsn=new_dsns, channel=channels)
                return
        for copy in zip(hsns, old_dsns, new_dsns, strict=True):
            self.submit(*copy)

    def _check(self, src_channel: int, old_dsn: int, new_dsn: int) -> None:
        """Raise unless ``old_dsn`` on ``src_channel`` may start a copy
        to ``new_dsn``."""
        if src_channel != self.channel_of(new_dsn):
            raise MigrationError(
                f"cross-channel migration {old_dsn:#x} -> {new_dsn:#x}")
        if not 0 <= old_dsn < len(self._slot_of):
            raise AddressError(f"DSN {old_dsn:#x} out of range")
        if self._slot_of.item(old_dsn) != _NO_SLOT:
            raise MigrationError(f"DSN {old_dsn:#x} is already migrating")

    def _fill(self, slots: np.ndarray, hsns, old_dsns, new_dsns) -> None:
        """Start tracking one copy per slot (scalars or columns)."""
        table = self._table
        table[_HSN, slots] = hsns
        table[_OLD_DSN, slots] = old_dsns
        table[_NEW_DSN, slots] = new_dsns
        table[_LINES_DONE:_SERIAL, slots] = 0
        table[_SERIAL, slots] = np.arange(self._next_serial,
                                          self._next_serial + len(slots))
        table[_LIVE, slots] = 1
        self._next_serial += len(slots)
        self._slot_of[table[_OLD_DSN, slots]] = slots
        self._tracked += len(slots)
        self._order = None

    def cancel(self, old_dsns: list[int] | np.ndarray) -> np.ndarray:
        """Stop tracking the copies whose source is in ``old_dsns``.

        For sources that are being freed rather than moved: their
        requests leave the queue, the in-flight register and the
        conflict index whatever their progress, and nothing is remapped.
        Returns the reserved destinations, which the caller owns again
        (``allocator.free``).
        """
        old_dsns = np.asarray(old_dsns, dtype=np.int64)
        known = old_dsns[(old_dsns >= 0) & (old_dsns < len(self._slot_of))]
        slots = self._slot_of[known]
        slots = slots[slots != _NO_SLOT]
        if not len(slots):
            return slots
        if not all_distinct(slots):  # a source named twice counts once
            slots = slots[np.sort(np.unique(slots, return_index=True)[1])]
        table = self._table
        self._untrack(slots)
        for channel, queue in enumerate(self._queues):
            inflight = self._inflight[channel]
            if inflight != _NO_SLOT and not table.item(_LIVE, inflight):
                self._inflight[channel] = _NO_SLOT
            waiting = queue.slots()
            queue.replace(waiting[table[_LIVE, waiting] != 0])
        if self._trace is not None:
            self._trace.record_tail(
                EventKind.MIGRATION_CANCEL, hsn=table[_HSN, slots],
                old_dsn=table[_OLD_DSN, slots],
                new_dsn=table[_NEW_DSN, slots],
                lines_done=table[_LINES_DONE, slots])
        return table[_NEW_DSN, slots]

    def pending_count(self) -> int:
        """Requests queued or in flight."""
        return self._tracked

    def request_for(self, dsn: int) -> MigrationRequest | None:
        """The migration request whose source is ``dsn``, if any."""
        slot = self._slot_copying(dsn)
        return None if slot == _NO_SLOT else MigrationRequest(self, slot)

    @property
    def has_tracked_requests(self) -> bool:
        """True when any segment has a queued or in-flight migration.

        The batch datapath uses this to skip write routing entirely; the
        tracked set only changes from the engine's own step/abort paths,
        never from a read access, so it is stable across one batch.
        """
        return self._tracked > 0

    def in_flight(self, channel: int) -> MigrationRequest | None:
        """The request ``channel`` is copying, if any."""
        slot = self._inflight[channel]
        return None if slot == _NO_SLOT else MigrationRequest(self, slot)

    def queued(self, channel: int) -> list[MigrationRequest]:
        """The requests waiting on ``channel``, next to run first."""
        return [MigrationRequest(self, slot)
                for slot in self._queues[channel].slots().tolist()]

    def tracked_copies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hsns, old_dsns, new_dsns)`` of all queued or in-flight
        migrations, oldest first."""
        return tuple(self._table[_HSN:_NEW_DSN + 1, self._tracked_slots()])

    def tracked_progress(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lines_done, completion)`` of the copies
        :meth:`tracked_copies` lists, in the same order."""
        return tuple(self._table[_LINES_DONE:_COMPLETION + 1,
                                 self._tracked_slots()])

    def is_tracked(self, dsns: np.ndarray) -> np.ndarray:
        """True where a queued or in-flight migration copies from that
        DSN: one gather from the DSN-indexed slot array."""
        return self._slot_of[dsns] != _NO_SLOT

    def tracked_requests(self) -> list[MigrationRequest]:
        """All queued or in-flight migration requests, oldest first."""
        return [MigrationRequest(self, slot)
                for slot in self._tracked_slots().tolist()]

    # -- foreground interface -------------------------------------------------------

    def on_foreground_write(self, dsn: int, line_index: int) -> WriteRouting:
        """Apply the write-conflict protocol for a foreground write.

        Args:
            dsn: Segment the write targets (pre-migration mapping).
            line_index: Cacheline index within the segment.

        Returns:
            Which copy of the segment the write must be issued to.
        """
        slot = self._slot_copying(dsn)
        if slot == _NO_SLOT:
            return WriteRouting.OLD_DSN
        if not 0 <= line_index < self.lines_per_segment:
            raise MigrationError(f"line index {line_index} out of range")
        if self._table.item(_COMPLETION, slot):
            self.stats.foreground_redirects += 1
            return WriteRouting.NEW_DSN
        if line_index >= self._table.item(_LINES_DONE, slot):
            # Not migrated yet; the copy will pick up the new value later.
            return WriteRouting.OLD_DSN
        # Already-migrated line is being overwritten: abort and retry.
        self._abort(slot)
        return WriteRouting.OLD_DSN

    def on_foreground_write_batch(self, dsns: np.ndarray,
                                  line_indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`on_foreground_write` over paired arrays.

        Equivalent to calling the scalar protocol once per element in
        order; returns a bool array — True where the write must be
        issued to the NEW_DSN copy.  The order-sensitivity of the scalar
        loop collapses per request: a request with its completion bit
        set redirects *every* write to it (an abort is unreachable once
        the copy is complete), and an incomplete request aborts at most
        once per batch — the first conflicting write resets
        ``lines_done`` to zero, after which no later line index can
        conflict.  Aborts are applied in first-conflict order so requeue
        ordering matches the scalar sequence.

        The writes find their requests through the DSN-indexed slot
        array, so the call makes no sort or set operation over them.
        Requests are screened in DSN order: the first one holding an
        out-of-range line index raises at that write, after the
        completed requests before it have counted their redirects and
        before any abort is applied.
        """
        dsns = np.asarray(dsns, dtype=np.int64)
        line_indices = np.asarray(line_indices, dtype=np.int64)
        routed_new = np.zeros(len(dsns), dtype=bool)
        if not len(dsns) or not self._tracked:
            return routed_new
        slots = self._slot_of[dsns]
        hits = np.flatnonzero(slots != _NO_SLOT)
        slots, lines = slots[hits], line_indices[hits]
        complete = self._table[_COMPLETION, slots] != 0
        bad = (lines < 0) | (lines >= self.lines_per_segment)
        if bad.any():
            hit_dsns = dsns[hits]
            first_dsn = hit_dsns[bad].min()
            self.stats.foreground_redirects += int(
                np.count_nonzero(complete & (hit_dsns < first_dsn)))
            first = hits[np.flatnonzero(bad & (hit_dsns == first_dsn))[0]]
            raise MigrationError(
                f"line index {int(line_indices[first])} out of range")
        if complete.any():
            routed_new[hits[complete]] = True
            self.stats.foreground_redirects += int(
                np.count_nonzero(complete))
        conflicts = ~complete & (lines < self._table[_LINES_DONE, slots])
        if conflicts.any():
            conflicting = slots[conflicts]
            first = np.full(self._table.shape[1], len(conflicting))
            np.minimum.at(first, conflicting, np.arange(len(conflicting)))
            is_first = np.zeros(len(conflicting), dtype=bool)
            is_first[first[conflicting]] = True
            for slot in conflicting[is_first].tolist():
                self._abort(slot)
        return routed_new

    def _abort(self, slot: int) -> None:
        """Restart the copy in ``slot``; past ``max_retries`` aborts it
        goes to the tail of its channel's queue."""
        table = self._table
        table[_LINES_DONE, slot] = 0
        table[_COMPLETION, slot] = 0
        retries = table.item(_RETRIES, slot) + 1
        table[_RETRIES, slot] = retries
        self.stats.aborts += 1
        hsn, old_dsn = table.item(_HSN, slot), table.item(_OLD_DSN, slot)
        if self._trace is not None:
            self._trace.record(EventKind.MIGRATION_ABORT, hsn=hsn,
                               old_dsn=old_dsn, retries=retries)
        if retries > self.max_retries:
            # Move to the tail of its channel's migration queue.
            channel = self.channel_of(old_dsn)
            queue = self._queues[channel]
            if self._inflight[channel] == slot:
                self._inflight[channel] = _NO_SLOT
            else:
                waiting = queue.slots()
                queue.replace(waiting[waiting != slot])
            table[_RETRIES, slot] = 0
            table[_REQUEUES, slot] += 1
            self.stats.requeues += 1
            queue.extend(np.array([slot]))
            if self._trace is not None:
                self._trace.record(EventKind.MIGRATION_REQUEUE,
                                   hsn=hsn, old_dsn=old_dsn,
                                   requeues=table.item(_REQUEUES, slot),
                                   channel=channel)

    # -- progress --------------------------------------------------------------------

    def advance(self, rounds: int, lines: int = 1,
                channels: Iterable[int] | None = None) -> tuple[int, int]:
        """Run up to ``rounds`` pump rounds on ``channels`` (default: all).

        The pump schedule, one round on every stepped channel:

        * the channel copies up to ``lines`` cachelines of the request
          at the head of its queue (the one in flight);
        * the chunk that finishes a segment ends the channel's round and
          only sets the completion bit;
        * the finished copy retires (mapping update) at the start of the
          channel's next round, and the next request starts copying in
          that same round.

        The retire step is Section 4.2's window in which a foreground
        write sees "completion bit set, mapping update pending" and is
        routed to the new DSN.  Migration only uses idle bandwidth, so a
        channel left out of ``channels`` (foreground-busy) does nothing.

        The rounds are computed from each request's remaining lines, not
        stepped.  The call stops early once nothing is queued or in
        flight on the stepped channels, or right after the first round
        in which an injected abort fires (hook: ``migration.copy``): the
        abort may requeue its request, and the caller may audit.  The
        hook's visits are one injector call; the retires reach
        ``on_complete`` in one call, in (round, channel) order.

        Returns:
            ``(rounds taken, cachelines copied)``.
        """
        if not self._tracked or rounds < 1 or lines < 1:
            return 0, 0
        table = self._table
        plans = []
        for channel in (range(len(self._queues)) if channels is None
                        else channels):
            inflight = self._inflight[channel]
            # A copy: a queue reuses its buffer once it is emptied.
            slots = self._queues[channel].slots().copy()
            if inflight != _NO_SLOT:
                slots = np.concatenate(([inflight], slots))
            elif not len(slots):
                continue
            done = table[_LINES_DONE, slots]
            # Copy rounds per request (a finished copy only retires).
            spans = np.where(table[_COMPLETION, slots] != 0, 0, np.maximum(
                1, -((done - self.lines_per_segment) // lines)))
            plans.append((channel, slots, done, spans, np.cumsum(spans) + 1))
        if not plans:
            return 0, 0
        last = min(rounds, max(retire_at.item(-1)
                               for *_, retire_at in plans))
        fires: list = []
        if self._faults is not None:
            progress, stepped, rows = self._copy_steps(plans, last, lines)
            fires = self._faults.on_migration_copies(progress, stepped, rows)
            if fires:  # all in one round, which ends the call
                last = rows.item(fires[0][0]) + 1
                fires = [(stepped.item(offset), fire)
                         for offset, fire in fires]
        aborted = {channel for channel, _ in fires}
        copied = 0
        retired = []  # (slots, rounds, channel) per plan
        for channel, slots, done, spans, retire_at in plans:
            # ``retire_at`` is the round at whose start each copy retires.
            count = int(np.searchsorted(retire_at, last, side="right"))
            copied += int((self.lines_per_segment - done[:count])[
                spans[:count] > 0].sum())
            if count:
                retired.append((slots[:count], retire_at[:count], channel))
            head = count
            if count < len(slots):  # in flight once ``last`` rounds end
                slot = slots.item(count)
                # Rounds it copied in: from its first copy round on,
                # less the last when an abort took that round's step.
                rounds_in = (last - (retire_at.item(count) - spans.item(count))
                             + (channel not in aborted))
                take = min(rounds_in * lines, self.lines_per_segment
                           - done.item(count))
                table[_LINES_DONE, slot] = done.item(count) + take
                copied += take
                if rounds_in == spans.item(count):
                    table[_COMPLETION, slot] = 1
                head += 1
            else:
                slot = _NO_SLOT
            self._queues[channel].drop(
                head - (self._inflight[channel] != _NO_SLOT))
            self._inflight[channel] = slot
        self.stats.lines_copied += copied
        if retired:
            self._retire(retired)
        for channel, fire in fires:
            slot = self._inflight[channel]
            fire(self._table.item(_OLD_DSN, slot),
                 self._table.item(_NEW_DSN, slot))
            self._abort(slot)
        return last, copied

    @staticmethod
    def _copy_steps(plans: list, last: int, lines: int,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The copy steps of rounds ``1..last`` in (round, channel)
        order: each one's request progress before the step, its channel
        and its round (0-based).  A channel copies in every round until
        its last copy retires, so its steps are rounds ``1..count``."""
        counts = [min(retire_at.item(-1) - 1, last)
                  for *_, retire_at in plans]
        grid = np.full((max(counts), len(plans)), -1, dtype=np.int64)
        for column, ((_, _, done, spans, retire_at), count) in enumerate(
                zip(plans, counts)):
            steps = np.arange(1, count + 1)
            starts = retire_at - spans  # each request's first copy round
            request = np.searchsorted(starts, steps, side="right") - 1
            grid[:count, column] = (done[request]
                                    + (steps - starts[request]) * lines)
        rows, columns = np.nonzero(grid >= 0)
        channels = np.array([channel for channel, *_ in plans])[columns]
        return grid[rows, columns], channels, rows

    def step_channel(self, channel: int, foreground_busy: bool = False,
                     lines: int = 1) -> int:
        """One pump round of ``lines`` cachelines on ``channel`` alone
        (see :meth:`advance`); nothing when ``foreground_busy``.

        Returns:
            Number of lines actually copied.
        """
        if foreground_busy:
            return 0
        return self.advance(1, lines, (channel,))[1]

    def step_all(self, busy_channels: set[int] | None = None,
                 lines: int = 1) -> int:
        """One pump round of ``lines`` lines on every non-busy channel."""
        channels = None
        if busy_channels:
            channels = [channel for channel in range(len(self._queues))
                        if channel not in busy_channels]
        return self.advance(1, lines, channels)[1]

    def drain(self) -> int:
        """Run all queued migrations to completion.

        Each channel in turn is pumped a whole segment per round until
        it is quiet (:meth:`advance`): no foreground write arrives
        mid-call, so only an injected abort can interrupt it, and every
        channel otherwise retires its queue in order in one call.

        Returns:
            Cumulative count of segments migrated by this engine.
        """
        for channel in range(len(self._queues)):
            while self.advance(sys.maxsize, self.lines_per_segment,
                               (channel,))[0]:
                pass
        return self.stats.segments_migrated

    def _retire(self, retired: list) -> None:
        """Retire the finished copies of one :meth:`advance`, given as
        ``(slots, rounds, channel)`` per channel: removal from the
        registers, then one mapping update, in (round, channel) order."""
        slots, rounds, channels = (np.concatenate(column) for column in zip(
            *((slots, rounds, np.full(len(slots), channel, dtype=np.int64))
              for slots, rounds, channel in retired)))
        if len(retired) > 1:
            order = np.lexsort((channels, rounds))
            slots, channels = slots[order], channels[order]
        # Their rows keep the final values (see MigrationRequest).
        self._table[_LINES_DONE, slots] = self.lines_per_segment
        self._table[_COMPLETION, slots] = 1
        hsns, old_dsns, new_dsns = self._table[_HSN:_NEW_DSN + 1, slots]
        self._untrack(slots)
        self.stats.segments_migrated += len(slots)
        if self._trace is not None:
            self._trace.record_tail(
                EventKind.MIGRATION_RETIRE, hsn=hsns, old_dsn=old_dsns,
                new_dsn=new_dsns, channel=channels)
        if self.on_complete is not None:
            self.on_complete(hsns, old_dsns, new_dsns)

    # -- cost model ---------------------------------------------------------------------

    def migration_time_s(self, num_bytes: int, spare_bandwidth_gbs: float) -> float:
        """Wall time to move ``num_bytes`` using spare channel bandwidth.

        Section 5.1 measures this with a bandwidth-throttled ``memcpy``; we
        compute it directly from the spare bandwidth.
        """
        if spare_bandwidth_gbs <= 0:
            raise MigrationError("no spare bandwidth for migration")
        return num_bytes / (spare_bandwidth_gbs * 1e9)


__all__ = [
    "DEFAULT_MAX_RETRIES",
    "WriteRouting",
    "MigrationRequest",
    "MigrationStats",
    "MigrationEngine",
    "WeakCompletion",
]
