"""Tests for the atomic migration engine (Section 4.2)."""

import pytest

from repro.core.addressing import DeviceAddressLayout, SegmentLocation
from repro.core.migration import (MigrationEngine, MigrationRequest,
                                  WriteRouting)
from repro.dram.geometry import DramGeometry
from repro.errors import MigrationError
from repro.units import CACHELINE_BYTES, MIB


@pytest.fixture
def geometry():
    # Small segments keep line counts manageable: 128 KiB = 2048 lines.
    return DramGeometry(ranks_per_channel=4, rank_bytes=16 * MIB,
                        segment_bytes=128 * 1024)


@pytest.fixture
def layout(geometry):
    return DeviceAddressLayout(geometry)


@pytest.fixture
def engine(geometry):
    return MigrationEngine(geometry)


def dsn_at(layout, channel, rank, index):
    return layout.pack_dsn(SegmentLocation(channel, rank, index))


class TestSubmission:
    def test_submit_same_channel(self, engine, layout):
        request = engine.submit(1, dsn_at(layout, 0, 0, 0),
                                dsn_at(layout, 0, 1, 0))
        assert isinstance(request, MigrationRequest)
        assert engine.pending_count() == 1

    def test_cross_channel_rejected(self, engine, layout):
        with pytest.raises(MigrationError):
            engine.submit(1, dsn_at(layout, 0, 0, 0),
                          dsn_at(layout, 1, 0, 0))

    def test_duplicate_source_rejected(self, engine, layout):
        src = dsn_at(layout, 0, 0, 0)
        engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        with pytest.raises(MigrationError):
            engine.submit(2, src, dsn_at(layout, 0, 2, 0))

    def test_request_lookup(self, engine, layout):
        src = dsn_at(layout, 0, 0, 0)
        request = engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        assert engine.request_for(src) == request
        assert engine.request_for(999999) is None


class TestProgress:
    def test_step_copies_lines(self, engine, layout):
        engine.submit(1, dsn_at(layout, 0, 0, 0), dsn_at(layout, 0, 1, 0))
        copied = engine.step_channel(0, lines=10)
        assert copied == 10
        assert engine.stats.lines_copied == 10

    def test_foreground_busy_blocks_migration(self, engine, layout):
        engine.submit(1, dsn_at(layout, 0, 0, 0), dsn_at(layout, 0, 1, 0))
        assert engine.step_channel(0, foreground_busy=True, lines=10) == 0

    def test_completion_fires_callback(self, geometry, layout):
        completed = []
        engine = MigrationEngine(
            geometry, on_complete=lambda *columns: completed.append(
                [column.tolist() for column in columns]))
        request = engine.submit(7, dsn_at(layout, 0, 0, 0),
                                dsn_at(layout, 0, 1, 0))
        engine.step_channel(0, lines=engine.lines_per_segment)
        # Copy finished: completion bit set, mapping update still pending
        # (Section 4.2 window).  Retirement happens on the next step.
        assert request.completion
        assert not completed
        engine.step_channel(0, lines=1)
        # The callback takes three columns (HSNs, old DSNs, new DSNs):
        # one row from a stepped retire.
        assert completed == [[[7], [request.old_dsn], [request.new_dsn]]]
        assert request.hsn == 7
        assert request.completion

    def test_completion_window_routes_writes_to_new_dsn(self, geometry,
                                                        layout):
        """Regression: the completion->retirement window must be reachable
        in the live path (not only by hand-setting the completion bit)."""
        completed = []
        engine = MigrationEngine(
            geometry, on_complete=lambda *columns: completed.append(columns))
        src = dsn_at(layout, 0, 0, 0)
        dst = dsn_at(layout, 0, 1, 0)
        engine.submit(7, src, dst)
        engine.step_channel(0, lines=engine.lines_per_segment)
        # A foreground write arriving in the window goes to the new copy.
        assert engine.on_foreground_write(src, 3) is WriteRouting.NEW_DSN
        assert engine.stats.foreground_redirects == 1
        assert not completed
        engine.step_channel(0, lines=1)
        assert len(completed) == 1
        # After retirement the old DSN no longer matches any request.
        assert engine.on_foreground_write(src, 3) is WriteRouting.OLD_DSN

    def test_drain_completes_everything(self, engine, layout):
        for index in range(3):
            engine.submit(index, dsn_at(layout, 0, 0, index),
                          dsn_at(layout, 0, 1, index))
        engine.submit(9, dsn_at(layout, 1, 0, 0), dsn_at(layout, 1, 1, 0))
        assert engine.drain() == 4
        assert engine.pending_count() == 0

    def test_step_all_skips_busy(self, engine, layout):
        engine.submit(1, dsn_at(layout, 0, 0, 0), dsn_at(layout, 0, 1, 0))
        engine.submit(2, dsn_at(layout, 1, 0, 0), dsn_at(layout, 1, 1, 0))
        copied = engine.step_all(busy_channels={0}, lines=5)
        assert copied == 5

    def test_bytes_copied(self, engine, layout):
        engine.submit(1, dsn_at(layout, 0, 0, 0), dsn_at(layout, 0, 1, 0))
        engine.drain()
        assert engine.stats.bytes_copied == engine.lines_per_segment \
            * CACHELINE_BYTES


class TestWriteConflictProtocol:
    """The four cases of Section 4.2's atomic-migration protocol."""

    def test_write_to_non_migrating_segment(self, engine):
        assert engine.on_foreground_write(12345, 0) is WriteRouting.OLD_DSN

    def test_write_after_completion_routes_to_new(self, geometry, layout):
        # No completion callback: the request keeps its completion bit
        # visible until the mapping update would retire it.
        engine = MigrationEngine(geometry, on_complete=None)
        src = dsn_at(layout, 0, 0, 0)
        request = engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        request.lines_done = request.lines_total
        request.completion = True
        assert engine.on_foreground_write(src, 5) is WriteRouting.NEW_DSN
        assert engine.stats.foreground_redirects == 1

    def test_write_to_not_yet_copied_line_proceeds(self, engine, layout):
        src = dsn_at(layout, 0, 0, 0)
        engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        engine.step_channel(0, lines=10)
        assert engine.on_foreground_write(src, 50) is WriteRouting.OLD_DSN
        assert engine.stats.aborts == 0

    def test_write_to_copied_line_aborts(self, engine, layout):
        src = dsn_at(layout, 0, 0, 0)
        request = engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        engine.step_channel(0, lines=10)
        assert engine.on_foreground_write(src, 5) is WriteRouting.OLD_DSN
        assert engine.stats.aborts == 1
        assert request.lines_done == 0
        assert request.retries == 1

    def test_excess_retries_requeue_to_tail(self, engine, layout):
        src = dsn_at(layout, 0, 0, 0)
        request = engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        other = engine.submit(2, dsn_at(layout, 0, 0, 1),
                              dsn_at(layout, 0, 1, 1))
        for _ in range(engine.max_retries + 1):
            engine.step_channel(0, lines=10)
            engine.on_foreground_write(src, 5)
        assert engine.stats.requeues == 1
        assert request.requeues == 1
        assert request.retries == 0
        # The other request now runs first.
        engine.step_channel(0, lines=engine.lines_per_segment)
        assert other.completion

    def test_line_index_range_checked(self, engine, layout):
        src = dsn_at(layout, 0, 0, 0)
        engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        with pytest.raises(MigrationError):
            engine.on_foreground_write(src, engine.lines_per_segment)

    def test_migration_eventually_completes_despite_aborts(self, engine,
                                                           layout):
        """Correctness guarantee: retried migrations still finish."""
        src = dsn_at(layout, 0, 0, 0)
        request = engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        engine.step_channel(0, lines=4)
        engine.on_foreground_write(src, 1)  # abort once
        engine.drain()
        assert request.completion
        assert engine.stats.segments_migrated == 1


class TestAbortRequeue:
    """Requeue behaviour when retries exceed ``max_retries`` (Section 4.2),
    for both an in-flight and a still-queued request."""

    def test_requeue_while_inflight_clears_register(self, engine, layout):
        src = dsn_at(layout, 0, 0, 0)
        request = engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        engine.step_channel(0, lines=10)  # now in-flight
        request.retries = engine.max_retries
        engine.on_foreground_write(src, 5)  # abort pushes past the limit
        assert engine.in_flight(0) is None
        assert engine.queued(0)[-1] == request
        assert request.retries == 0
        assert request.requeues == 1
        assert engine.stats.requeues == 1
        assert engine.drain() == 1

    def test_requeue_while_queued_moves_to_tail_once(self, engine, layout):
        first = engine.submit(1, dsn_at(layout, 0, 0, 0),
                              dsn_at(layout, 0, 1, 0))
        second = engine.submit(2, dsn_at(layout, 0, 0, 1),
                               dsn_at(layout, 0, 1, 1))
        third = engine.submit(3, dsn_at(layout, 0, 0, 2),
                              dsn_at(layout, 0, 1, 2))
        engine.step_channel(0, lines=10)  # first becomes in-flight
        second.retries = engine.max_retries
        second.lines_done = 5  # part-copied, then back in the queue
        engine.on_foreground_write(second.old_dsn, 2)  # conflict: abort
        # Removed from its queue position and re-appended exactly once.
        assert engine.queued(0) == [third, second]
        assert engine.in_flight(0) == first
        assert second.requeues == 1
        assert second.retries == 0
        assert engine.drain() == 3

    def test_retries_below_limit_keep_request_in_place(self, engine, layout):
        src = dsn_at(layout, 0, 0, 0)
        request = engine.submit(1, src, dsn_at(layout, 0, 1, 0))
        engine.step_channel(0, lines=10)
        engine.on_foreground_write(src, 5)  # first abort: retries=1
        assert engine.in_flight(0) == request
        assert engine.stats.requeues == 0


class TestCostModel:
    def test_migration_time(self, engine):
        # 2 GiB at 2 GB/s ~= 1.07 s.
        time_s = engine.migration_time_s(2 * 1024 ** 3, 2.0)
        assert time_s == pytest.approx(1.074, abs=0.01)

    def test_zero_bandwidth_rejected(self, engine):
        with pytest.raises(MigrationError):
            engine.migration_time_s(1024, 0.0)
