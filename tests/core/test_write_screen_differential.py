"""``MigrationEngine.on_foreground_write_batch`` against the scalar
protocol it collapses: one ``on_foreground_write`` per write, in order.

Twin engines hold the same copies — queued or in flight, part-way or
complete with the remap pending, some one abort short of a requeue —
and take the same writes, tracked and untracked, one engine
element-wise and one in bulk.  Routing, counters, every copy's row, each channel's queue and the
abort / requeue events (in order) must match.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.migration import MigrationEngine, WriteRouting
from repro.dram.geometry import DramGeometry
from repro.errors import MigrationError
from repro.telemetry import EventKind, EventTrace

#: Two channels (a DSN's low bit), 16 segments of 64 lines each.
GEOMETRY = DramGeometry(channels=2, ranks_per_channel=2,
                        rank_bytes=16 * 1024, segment_bytes=4096)
LINES = GEOMETRY.segment_bytes // 64
SOURCES = GEOMETRY.total_segments // 2
MAX_RETRIES = 1
KINDS = (EventKind.MIGRATION_ABORT, EventKind.MIGRATION_REQUEUE)


def engine_with(sources, steps, rows) -> MigrationEngine:
    """Copies ``source -> source + SOURCES`` (same channel), each
    channel stepped ``steps[channel]`` lines (which puts a copy in
    flight, or retires one), then each outstanding copy given the
    ``(lines_done, retries)`` of ``rows`` — queued ones too, so several
    copies of a channel can abort in one batch."""
    engine = MigrationEngine(GEOMETRY, max_retries=MAX_RETRIES,
                             trace=EventTrace(1_000))
    for source in sources:
        engine.submit(source, source, source + SOURCES)
    for channel, lines in enumerate(steps):
        engine.step_channel(channel, lines=lines)
    for request, (done, retries) in zip(engine.tracked_requests(), rows):
        request.lines_done = done
        request.completion = done == LINES
        request.retries = retries
    return engine


def state(engine: MigrationEngine) -> tuple:
    """Counters, rows, per-channel (in flight, queue) and events."""
    def old_dsns(requests) -> list:
        return [None if r is None else r.old_dsn for r in requests]

    return (engine.stats.aborts, engine.stats.requeues,
            engine.stats.foreground_redirects,
            [(r.old_dsn, r.lines_done, r.completion, r.retries, r.requeues)
             for r in engine.tracked_requests()],
            [old_dsns([engine.in_flight(channel)] + engine.queued(channel))
             for channel in range(GEOMETRY.channels)],
            [event.to_dict() for event in engine._trace.events()
             if event.kind in KINDS])


@settings(max_examples=200, deadline=None)
@given(sources=st.lists(st.integers(0, SOURCES - 1), min_size=1,
                        max_size=6, unique=True),
       steps=st.lists(st.integers(0, 2 * LINES), min_size=2, max_size=2),
       rows=st.lists(st.tuples(st.integers(0, LINES),
                               st.integers(0, MAX_RETRIES)),
                     min_size=6, max_size=6),
       writes=st.lists(st.tuples(st.integers(0, SOURCES - 1),
                                 st.integers(0, LINES - 1)), max_size=80))
def test_batch_write_screen_matches_scalar_loop(sources, steps, rows,
                                                writes):
    scalar, batch = (engine_with(sources, steps, rows) for _ in range(2))
    dsns = np.array([dsn for dsn, _ in writes], dtype=np.int64)
    lines = np.array([line for _, line in writes], dtype=np.int64)
    expected = [scalar.on_foreground_write(dsn, line) is WriteRouting.NEW_DSN
                for dsn, line in writes]
    routed = batch.on_foreground_write_batch(dsns, lines)
    assert routed.tolist() == expected
    assert state(batch) == state(scalar)


def test_an_out_of_range_line_raises_before_any_abort():
    engine = engine_with([0, 2], [0, 0], [(LINES // 2, 0), (0, 0)])
    with pytest.raises(MigrationError, match="line index 64"):
        engine.on_foreground_write_batch(np.array([0, 2, 0]),
                                         np.array([1, LINES, 0]))
    assert engine.stats.aborts == 0
