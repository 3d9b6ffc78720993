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
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.addressing import DeviceAddressLayout
from repro.dram.geometry import DramGeometry
from repro.errors import MigrationError
from repro.telemetry import EventKind, EventTrace, MetricsRegistry
from repro.units import CACHELINE_BYTES

DEFAULT_MAX_RETRIES = 3


class WriteRouting(enum.Enum):
    """Where a foreground write to a migrating segment must go."""

    OLD_DSN = "old"
    NEW_DSN = "new"


@dataclass
class MigrationRequest:
    """One in-flight segment copy.

    Attributes:
        hsn: Host segment whose mapping will move.
        old_dsn: Source segment.
        new_dsn: Destination segment (already reserved in the allocator).
        lines_total: Cachelines in one segment.
        lines_done: Progress counter.
        completion: Set once all lines are copied; the mapping update is
            still pending at that point.
        retries: Abort count for the current execution attempt.
    """

    hsn: int
    old_dsn: int
    new_dsn: int
    lines_total: int
    lines_done: int = 0
    completion: bool = False
    retries: int = 0
    requeues: int = 0

    def reset_progress(self) -> None:
        """Restart the copy from the first line (after an abort)."""
        self.lines_done = 0
        self.completion = False


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


#: Callback invoked when requests retire (copy finished, mapping update
#: due): ``on_complete(requests)`` — one request from a stepped retire,
#: a channel's whole queue in queue order from a bulk :meth:`drain`.
CompletionCallback = Callable[[list[MigrationRequest]], None]


class MigrationEngine:
    """Per-channel migration queues with the atomic write-conflict protocol."""

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
        self._queues: dict[int, deque[MigrationRequest]] = {
            channel: deque() for channel in range(geometry.channels)}
        # The "outstanding migration registers" of Section 4.2: at most one
        # in-flight request per channel.
        self._inflight: dict[int, MigrationRequest | None] = {
            channel: None for channel in range(geometry.channels)}
        # old_dsn -> request, for O(1) foreground conflict checks.
        self._by_old_dsn: dict[int, MigrationRequest] = {}
        self._trace = trace
        self.stats = MigrationStats(registry=registry)
        # Armed fault injector (None = zero-overhead no-op hooks).
        self._faults = None

    def arm_faults(self, injector) -> None:
        """Attach (or with ``None`` detach) a fault injector."""
        self._faults = injector

    # -- submission --------------------------------------------------------------

    def channel_of(self, dsn: int) -> int:
        """Channel owning segment ``dsn``."""
        return self.layout.channel_of_dsn(dsn)

    def submit(self, hsn: int, old_dsn: int, new_dsn: int) -> MigrationRequest:
        """Queue a copy of segment ``old_dsn`` to ``new_dsn``.

        Both DSNs must live on the same channel — migration never crosses
        channels because channel capacity is balanced by construction.
        """
        channel = self.channel_of(old_dsn)
        request = self._enqueue(channel, hsn, old_dsn, new_dsn)
        if self._trace is not None:
            self._trace.record(EventKind.MIGRATION_SUBMIT, hsn=hsn,
                               old_dsn=old_dsn, new_dsn=new_dsn,
                               channel=channel)
        return request

    def submit_batch(self, hsns: list[int], old_dsns: list[int],
                     new_dsns: list[int]) -> list[MigrationRequest]:
        """:meth:`submit` over parallel lists, in order.

        The first bad triple raises :meth:`submit`'s error with the
        triples before it queued; the ``MIGRATION_SUBMIT`` events of the
        queued ones enter the ring as one columnar run.
        """
        channels = list(map(self.channel_of, old_dsns))
        requests: list[MigrationRequest] = []
        try:
            for copy in zip(channels, hsns, old_dsns, new_dsns,
                            strict=True):
                requests.append(self._enqueue(*copy))
        finally:
            if requests and self._trace is not None:
                done = len(requests)
                self._trace.record_tail(
                    EventKind.MIGRATION_SUBMIT, hsn=hsns[:done],
                    old_dsn=old_dsns[:done], new_dsn=new_dsns[:done],
                    channel=channels[:done])
        return requests

    def _enqueue(self, src_channel: int, hsn: int, old_dsn: int,
                 new_dsn: int) -> MigrationRequest:
        """Validate and queue one copy from ``src_channel`` (no event)."""
        if src_channel != self.channel_of(new_dsn):
            raise MigrationError(
                f"cross-channel migration {old_dsn:#x} -> {new_dsn:#x}")
        if old_dsn in self._by_old_dsn:
            raise MigrationError(f"DSN {old_dsn:#x} is already migrating")
        request = MigrationRequest(hsn=hsn, old_dsn=old_dsn, new_dsn=new_dsn,
                                   lines_total=self.lines_per_segment)
        self._queues[src_channel].append(request)
        self._by_old_dsn[old_dsn] = request
        return request

    def cancel(self, old_dsns: list[int]) -> list[int]:
        """Stop tracking the copies whose source is in ``old_dsns``.

        For sources that are being freed rather than moved: their
        requests leave the queue, the in-flight register and the
        conflict index whatever their progress, and nothing is remapped.
        Returns the reserved destinations, which the caller owns again
        (``allocator.free``).
        """
        cancelled = [self._by_old_dsn.pop(dsn) for dsn in old_dsns
                     if dsn in self._by_old_dsn]
        if not cancelled:
            return []
        gone = {request.old_dsn for request in cancelled}
        for channel, queue in self._queues.items():
            inflight = self._inflight[channel]
            if inflight is not None and inflight.old_dsn in gone:
                self._inflight[channel] = None
            self._queues[channel] = deque(
                request for request in queue if request.old_dsn not in gone)
        if self._trace is not None:
            self._trace.record_tail(
                EventKind.MIGRATION_CANCEL,
                hsn=[request.hsn for request in cancelled],
                old_dsn=[request.old_dsn for request in cancelled],
                new_dsn=[request.new_dsn for request in cancelled],
                lines_done=[request.lines_done for request in cancelled])
        return [request.new_dsn for request in cancelled]

    def pending_count(self) -> int:
        """Requests queued or in flight."""
        inflight = sum(1 for request in self._inflight.values() if request)
        return inflight + sum(len(queue) for queue in self._queues.values())

    def request_for(self, dsn: int) -> MigrationRequest | None:
        """The migration request whose source is ``dsn``, if any."""
        return self._by_old_dsn.get(dsn)

    @property
    def has_tracked_requests(self) -> bool:
        """True when any segment has a queued or in-flight migration.

        The batch datapath uses this to skip write routing entirely; the
        tracked set only changes from the engine's own step/abort paths,
        never from a read access, so it is stable across one batch.
        """
        return bool(self._by_old_dsn)

    def tracked_dsns(self) -> list[int]:
        """Source DSNs of all queued or in-flight migrations."""
        return list(self._by_old_dsn)

    def tracked_requests(self) -> list[MigrationRequest]:
        """All queued or in-flight migration requests."""
        return list(self._by_old_dsn.values())

    # -- foreground interface -------------------------------------------------------

    def on_foreground_write(self, dsn: int, line_index: int) -> WriteRouting:
        """Apply the write-conflict protocol for a foreground write.

        Args:
            dsn: Segment the write targets (pre-migration mapping).
            line_index: Cacheline index within the segment.

        Returns:
            Which copy of the segment the write must be issued to.
        """
        request = self._by_old_dsn.get(dsn)
        if request is None:
            return WriteRouting.OLD_DSN
        if not 0 <= line_index < request.lines_total:
            raise MigrationError(f"line index {line_index} out of range")
        if request.completion:
            self.stats.foreground_redirects += 1
            return WriteRouting.NEW_DSN
        if line_index >= request.lines_done:
            # Not migrated yet; the copy will pick up the new value later.
            return WriteRouting.OLD_DSN
        # Already-migrated line is being overwritten: abort and retry.
        self._abort(request)
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
        """
        dsns = np.asarray(dsns, dtype=np.int64)
        line_indices = np.asarray(line_indices, dtype=np.int64)
        routed_new = np.zeros(len(dsns), dtype=bool)
        if not len(dsns) or not self._by_old_dsn:
            return routed_new
        aborts: list[tuple[int, MigrationRequest]] = []
        for dsn in np.unique(dsns).tolist():
            request = self._by_old_dsn.get(dsn)
            if request is None:
                continue
            positions = np.nonzero(dsns == dsn)[0]
            lines = line_indices[positions]
            bad = (lines < 0) | (lines >= request.lines_total)
            if bad.any():
                # Reproduce the scalar error position: apply nothing for
                # this request past the first invalid write.  (Earlier
                # valid writes to *other* requests have already been or
                # will be applied — their effects are order-free.)
                first_bad = int(positions[int(np.argmax(bad))])
                raise MigrationError(
                    f"line index {int(line_indices[first_bad])} "
                    "out of range")
            if request.completion:
                self.stats.foreground_redirects += len(positions)
                routed_new[positions] = True
                continue
            conflicts = lines < request.lines_done
            if conflicts.any():
                first = int(positions[int(np.argmax(conflicts))])
                aborts.append((first, request))
        for _, request in sorted(aborts, key=lambda item: item[0]):
            self._abort(request)
        return routed_new

    def _abort(self, request: MigrationRequest) -> None:
        request.reset_progress()
        request.retries += 1
        self.stats.aborts += 1
        if self._trace is not None:
            self._trace.record(EventKind.MIGRATION_ABORT, hsn=request.hsn,
                               old_dsn=request.old_dsn,
                               retries=request.retries)
        if request.retries > self.max_retries:
            # Move to the tail of its channel's migration queue.
            channel = self.channel_of(request.old_dsn)
            if self._inflight[channel] is request:
                self._inflight[channel] = None
            else:
                try:
                    self._queues[channel].remove(request)
                except ValueError:
                    pass
            request.retries = 0
            request.requeues += 1
            self.stats.requeues += 1
            self._queues[channel].append(request)
            if self._trace is not None:
                self._trace.record(EventKind.MIGRATION_REQUEUE,
                                   hsn=request.hsn, old_dsn=request.old_dsn,
                                   requeues=request.requeues,
                                   channel=channel)

    # -- progress --------------------------------------------------------------------

    def step_channel(self, channel: int, foreground_busy: bool = False,
                     lines: int = 1) -> int:
        """Copy up to ``lines`` cachelines on ``channel``.

        Migration only uses idle bandwidth: nothing happens when
        ``foreground_busy`` is True.

        Retirement is a separate step from the copy: when the last line of
        a request lands, only its completion bit is set and the step ends.
        The mapping update (:meth:`_retire`) happens at the start of the
        *next* step on this channel.  This is the Section 4.2 window in
        which a foreground write sees "completion bit set, mapping update
        pending" and must be routed to the new DSN.

        Returns:
            Number of lines actually copied.
        """
        if foreground_busy:
            return 0
        copied = 0
        while copied < lines:
            request = self._inflight[channel]
            if request is None:
                if not self._queues[channel]:
                    break
                request = self._queues[channel].popleft()
                self._inflight[channel] = request
            if request.completion:
                # Deferred from the step that copied the last line.
                self._retire(channel, request)
                continue
            # Injected abort (hook: migration.copy).  Only legal while the
            # completion bit is clear — past it, foreground writes are
            # already redirected to the new DSN and an abort would lose
            # them.  The abort may requeue the request, so stop stepping.
            if (self._faults is not None
                    and self._faults.on_migration_copy(request, channel)):
                self._abort(request)
                break
            remaining = request.lines_total - request.lines_done
            take = min(lines - copied, remaining)
            request.lines_done += take
            copied += take
            self.stats.lines_copied += take
            if request.lines_done == request.lines_total:
                request.completion = True
                break
        return copied

    def step_all(self, busy_channels: set[int] | None = None,
                 lines: int = 1) -> int:
        """Copy up to ``lines`` lines on every non-busy channel."""
        busy = busy_channels or set()
        return sum(self.step_channel(channel, channel in busy, lines)
                   for channel in self._queues)

    def drain(self) -> int:
        """Run all queued migrations to completion.

        Nothing can interrupt a synchronous drain except an injected
        abort: no foreground write arrives mid-call, so no request
        aborts or requeues and every channel retires in queue order.
        Each channel's queue is therefore finished in one pass
        (:meth:`_finish_channel`); only under an armed plan that can
        abort a copy is it stepped one request at a time.

        Returns:
            Cumulative count of segments migrated by this engine.
        """
        stepped = (self._faults is not None
                   and self._faults.aborts_migration_copies)
        for channel in self._queues:
            if stepped:
                while self._inflight[channel] or self._queues[channel]:
                    self.step_channel(channel, lines=self.lines_per_segment)
            else:
                self._finish_channel(channel)
        return self.stats.segments_migrated

    def _finish_channel(self, channel: int) -> None:
        """Copy and retire everything on ``channel`` in one pass.

        What the stepped loop of :meth:`drain` does when nothing fires:
        the same requests in the same order, the same counters, one
        ``MIGRATION_RETIRE`` run and one ``on_complete`` call.
        """
        inflight = self._inflight[channel]
        requests = [] if inflight is None else [inflight]
        requests.extend(self._queues[channel])
        if not requests:
            return
        self._inflight[channel] = None
        self._queues[channel].clear()
        copying = 0
        lines = 0
        for request in requests:
            if not request.completion:
                copying += 1
                lines += request.lines_total - request.lines_done
                request.lines_done = request.lines_total
                request.completion = True
            del self._by_old_dsn[request.old_dsn]
        if self._faults is not None:
            # The stepped loop consults the hook once per copying request.
            self._faults.count_migration_copies(copying)
        self.stats.lines_copied += lines
        self.stats.segments_migrated += len(requests)
        if self._trace is not None:
            self._trace.record_tail(
                EventKind.MIGRATION_RETIRE,
                hsn=[request.hsn for request in requests],
                old_dsn=[request.old_dsn for request in requests],
                new_dsn=[request.new_dsn for request in requests],
                channel=[channel] * len(requests))
        if self.on_complete is not None:
            self.on_complete(requests)

    def _retire(self, channel: int, request: MigrationRequest) -> None:
        """Finish a request: mapping update then removal from registers."""
        self._inflight[channel] = None
        del self._by_old_dsn[request.old_dsn]
        self.stats.segments_migrated += 1
        if self._trace is not None:
            self._trace.record(EventKind.MIGRATION_RETIRE, hsn=request.hsn,
                               old_dsn=request.old_dsn,
                               new_dsn=request.new_dsn, channel=channel)
        if self.on_complete is not None:
            self.on_complete([request])

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
]
