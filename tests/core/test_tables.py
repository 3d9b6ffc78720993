"""Tests for the three-level translation tables and reverse map."""

import pickle

import numpy as np
import pytest

from repro.core.addressing import HostAddressLayout
from repro.core.tables import TranslationTables, UNMAPPED, WalkResult
from repro.dram.geometry import DramGeometry
from repro.errors import AddressError, AllocationError, TranslationError
from repro.units import GIB, MIB


@pytest.fixture
def layout():
    return HostAddressLayout(DramGeometry(rank_bytes=1 * GIB),
                             au_bytes=64 * MIB)


@pytest.fixture
def tables(layout):
    tables = TranslationTables(layout)
    tables.allocate_au(0, [0])
    return tables


class TestAuLifecycle:
    def test_allocate_and_list(self, tables):
        tables.allocate_au(0, [3])
        assert tables.au_ids(0) == [0, 3]

    def test_double_allocate_rejected(self, tables):
        with pytest.raises(AllocationError):
            tables.allocate_au(0, [0])

    def test_au_id_range(self, tables):
        with pytest.raises(AddressError):
            tables.allocate_au(0, [10 ** 9])

    def test_host_id_range(self, tables):
        with pytest.raises(AddressError):
            tables.register_host(16)

    def test_free_au_returns_dsns(self, tables, layout):
        hsn = layout.pack_hsn(0, 0, 5)
        tables.map_segment(hsn, 1234)
        freed = tables.free_au(0, [0])
        assert freed == [1234]
        assert not tables.is_dsn_live(1234)

    def test_free_unallocated_au_rejected(self, tables):
        with pytest.raises(TranslationError):
            tables.free_au(0, [7])


def test_checkpoints_hold_plain_dsns(tables, layout):
    """The forward table is kept inverted in memory, so that untouched
    pages read as unmapped; a pickle holds the DSNs themselves."""
    hsn = layout.pack_hsn(0, 0, 5)
    tables.map_segment(hsn, 1234)
    forward = tables.__getstate__()["_forward"]
    assert forward[hsn] == 1234
    assert (np.delete(forward, hsn) == UNMAPPED).all()
    restored = pickle.loads(pickle.dumps(tables))
    assert restored.walk(hsn).dsn == 1234
    assert restored.try_walk(layout.pack_hsn(0, 0, 6)) is None
    assert restored.hsn_of_dsn(1234) == hsn


class TestManyAus:
    """A VM's AUs are installed and torn down in one call each: the
    effects of the one-AU calls in order, or an error with nothing
    changed."""

    def mapped(self, tables, layout, au_ids):
        segments = layout.segments_per_au
        dsns = np.arange(len(au_ids) * segments, dtype=np.int64)[::-1] + 100
        tables.allocate_au(0, au_ids)
        hsns = tables.map_au_segments(0, au_ids, dsns)
        return dsns, hsns

    def test_span_is_mapped_au_by_au(self, tables, layout):
        segments = layout.segments_per_au
        dsns, hsns = self.mapped(tables, layout, [5, 2, 9])
        assert hsns.tolist() == [layout.pack_hsn(0, au_id, offset)
                                 for au_id in (5, 2, 9)
                                 for offset in range(segments)]
        assert tables.walk_batch(hsns).tolist() == dsns.tolist()
        assert tables.hsns_of_dsns(dsns).tolist() == hsns.tolist()
        assert tables.mapped_segment_count == len(dsns)

    def test_free_returns_the_dsns_au_by_au(self, tables, layout):
        segments = layout.segments_per_au
        dsns, _ = self.mapped(tables, layout, [5, 2, 9])
        freed = tables.free_au(0, [9, 5])
        assert freed.tolist() == (dsns[2 * segments:].tolist()
                                  + dsns[:segments].tolist())
        assert tables.au_ids(0) == [0, 2]
        assert tables.mapped_segment_count == segments

    def test_partial_last_au(self, tables, layout):
        segments = layout.segments_per_au
        tables.allocate_au(0, [3, 4])
        hsns = tables.map_au_segments(0, [3, 4], range(segments + 2))
        assert hsns[-1] == layout.pack_hsn(0, 4, 1)
        assert tables.try_walk(layout.pack_hsn(0, 4, 2)) is None
        tables.allocate_au(0, [5])
        with pytest.raises(AddressError, match="au_offset out of range"):
            tables.map_au_segments(0, [5], range(segments + 1))

    @pytest.mark.parametrize("au_ids, error, match", [
        ([4, 0], AllocationError, "AU 0 of host 0 already allocated"),
        ([4, 6, 4], AllocationError, r"AU named twice in \[4, 6, 4\]"),
        ([4, 10 ** 9], AddressError, "au_id 1000000000 out of range"),
    ])
    def test_allocate_rejects_before_any_change(self, tables, au_ids,
                                                error, match):
        with pytest.raises(error, match=match):
            tables.allocate_au(0, au_ids)
        assert tables.au_ids(0) == [0]

    @pytest.mark.parametrize("au_ids, match", [
        ([1, 7], "AU 7 of host 0 is not allocated"),
        ([1, 2, 1], r"AU named twice in \[1, 2, 1\] of host 0"),
    ])
    def test_free_rejects_before_any_change(self, tables, layout, au_ids,
                                            match):
        dsns, _ = self.mapped(tables, layout, [1, 2])
        with pytest.raises(TranslationError, match=match):
            tables.free_au(0, au_ids)
        assert tables.au_ids(0) == [0, 1, 2]
        assert sorted(tables.live_dsns()) == sorted(dsns.tolist())

    def test_dsn_named_twice_is_rejected_with_nothing_mapped(self, tables,
                                                             layout):
        segments = layout.segments_per_au
        tables.allocate_au(0, [1, 2])
        dsns = np.arange(2 * segments, dtype=np.int64)
        dsns[-1] = dsns[3]
        with pytest.raises(TranslationError, match="DSN already in use"):
            tables.map_au_segments(0, [1, 2], dsns)
        assert tables.live_dsns() == []
        assert tables.mapped_segment_count == 0
        assert tables.try_walk(layout.pack_hsn(0, 1, 0)) is None

    def test_au_with_a_mapped_segment_is_rejected(self, tables, layout):
        tables.allocate_au(0, [1])
        tables.map_segment(layout.pack_hsn(0, 1, 3), 77)
        with pytest.raises(TranslationError, match=r"AU in \[0, 1\] of "
                           "host 0 has mapped segments"):
            tables.map_au_segments(0, [0, 1], range(
                2 * layout.segments_per_au))
        assert tables.live_dsns() == [77]


class TestMapping:
    def test_map_and_walk(self, tables, layout):
        hsn = layout.pack_hsn(0, 0, 2)
        tables.map_segment(hsn, 42)
        result = tables.walk(hsn)
        assert isinstance(result, WalkResult)
        assert result.dsn == 42
        assert result.sram_accesses == 2
        assert result.dram_accesses == 1

    def test_double_map_rejected(self, tables, layout):
        hsn = layout.pack_hsn(0, 0, 2)
        tables.map_segment(hsn, 42)
        with pytest.raises(TranslationError):
            tables.map_segment(hsn, 43)

    def test_dsn_reuse_rejected(self, tables, layout):
        tables.map_segment(layout.pack_hsn(0, 0, 1), 42)
        with pytest.raises(TranslationError):
            tables.map_segment(layout.pack_hsn(0, 0, 2), 42)

    def test_walk_unmapped_raises(self, tables, layout):
        with pytest.raises(TranslationError):
            tables.walk(layout.pack_hsn(0, 0, 9))

    def test_try_walk_returns_none(self, tables, layout):
        assert tables.try_walk(layout.pack_hsn(0, 0, 9)) is None

    def test_unmap(self, tables, layout):
        hsn = layout.pack_hsn(0, 0, 2)
        tables.map_segment(hsn, 42)
        assert tables.unmap_segment(hsn) == 42
        assert tables.try_walk(hsn) is None

    def test_unmap_unmapped_raises(self, tables, layout):
        with pytest.raises(TranslationError):
            tables.unmap_segment(layout.pack_hsn(0, 0, 2))


class TestRemapAndSwap:
    def test_remap(self, tables, layout):
        hsn = layout.pack_hsn(0, 0, 2)
        tables.map_segment(hsn, 42)
        old = tables.remap_segment(hsn, 77)
        assert old == 42
        assert tables.walk(hsn).dsn == 77
        assert tables.hsn_of_dsn(77) == hsn
        assert not tables.is_dsn_live(42)

    def test_remap_to_used_dsn_rejected(self, tables, layout):
        tables.map_segment(layout.pack_hsn(0, 0, 1), 42)
        tables.map_segment(layout.pack_hsn(0, 0, 2), 43)
        with pytest.raises(TranslationError):
            tables.remap_segment(layout.pack_hsn(0, 0, 1), 43)

    def test_swap(self, tables, layout):
        hsn_a = layout.pack_hsn(0, 0, 1)
        hsn_b = layout.pack_hsn(0, 0, 2)
        tables.map_segment(hsn_a, 100)
        tables.map_segment(hsn_b, 200)
        tables.swap_segments(hsn_a, hsn_b)
        assert tables.walk(hsn_a).dsn == 200
        assert tables.walk(hsn_b).dsn == 100
        assert tables.hsn_of_dsn(100) == hsn_b
        assert tables.hsn_of_dsn(200) == hsn_a


class TestReverseMap:
    def test_reverse_lookup(self, tables, layout):
        hsn = layout.pack_hsn(0, 0, 3)
        tables.map_segment(hsn, 55)
        assert tables.hsn_of_dsn(55) == hsn

    def test_reverse_lookup_missing(self, tables):
        with pytest.raises(TranslationError):
            tables.hsn_of_dsn(999)

    def test_live_dsns(self, tables, layout):
        tables.map_segment(layout.pack_hsn(0, 0, 1), 9)
        tables.map_segment(layout.pack_hsn(0, 0, 2), 4)
        assert tables.live_dsns() == [4, 9]
        assert tables.mapped_segment_count == 2

    def test_consistency_after_operations(self, tables, layout):
        """Forward and reverse maps stay inverse of each other."""
        hsns = [layout.pack_hsn(0, 0, index) for index in range(8)]
        for index, hsn in enumerate(hsns):
            tables.map_segment(hsn, 1000 + index)
        tables.swap_segments(hsns[0], hsns[1])
        tables.remap_segment(hsns[2], 2000)
        tables.unmap_segment(hsns[3])
        for hsn in hsns[:3] + hsns[4:]:
            dsn = tables.walk(hsn).dsn
            assert tables.hsn_of_dsn(dsn) == hsn


class TestDsnsTheDeviceDoesNotHave:
    """The reverse table has one entry per device segment.  Asking about
    a DSN beyond it answers as for any dead segment; mapping one is an
    address error, scalar or bulk, with nothing changed."""

    BEYOND = (-1, 1 << 40)

    @pytest.mark.parametrize("dsn", BEYOND)
    def test_queries_answer_as_for_a_dead_segment(self, tables, layout,
                                                  dsn):
        assert dsn not in range(layout.geometry.total_segments)
        assert not tables.is_dsn_live(dsn)
        with pytest.raises(TranslationError,
                           match=f"DSN {dsn:#x} holds no segment"):
            tables.hsn_of_dsn(dsn)
        tables.map_segment(layout.pack_hsn(0, 0, 0), 7)
        with pytest.raises(TranslationError,
                           match=f"DSN {dsn:#x} holds no segment"):
            tables.hsns_of_dsns([7, dsn, 8])

    @pytest.mark.parametrize("dsn", BEYOND)
    def test_mapping_one_is_an_address_error(self, tables, layout, dsn):
        hsn = layout.pack_hsn(0, 0, 0)
        with pytest.raises(AddressError, match=f"DSN {dsn:#x} out of range"):
            tables.map_segment(hsn, dsn)
        assert tables.try_walk(hsn) is None
        tables.map_segment(hsn, 7)
        tables.map_segment(layout.pack_hsn(0, 0, 1), 9)
        with pytest.raises(AddressError, match=f"DSN {dsn:#x} out of range"):
            tables.remap_segment(hsn, dsn)
        with pytest.raises(AddressError, match=f"DSN {dsn:#x} out of range"):
            tables.remap_segments([hsn, layout.pack_hsn(0, 0, 1)],
                                  [8, dsn])
        assert tables.walk(hsn).dsn == 8  # the pair before it applied
        tables.allocate_au(0, [1])
        with pytest.raises(AddressError, match="DSN out of range in batch"):
            tables.map_au_segments(0, [1], [20, dsn, 21])
        assert tables.live_dsns() == [8, 9]
        assert tables.mapped_segment_count == 2

    def test_the_last_device_segment_maps(self, tables, layout):
        last = layout.geometry.total_segments - 1
        tables.map_segment(layout.pack_hsn(0, 0, 0), last)
        assert tables.live_dsns() == [last]
        assert tables.hsn_of_dsn(last) == layout.pack_hsn(0, 0, 0)
