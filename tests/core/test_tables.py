"""Tests for the three-level translation tables and reverse map."""

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
    tables.allocate_au(0, 0)
    return tables


class TestAuLifecycle:
    def test_allocate_and_list(self, tables):
        tables.allocate_au(0, 3)
        assert tables.au_ids(0) == [0, 3]

    def test_double_allocate_rejected(self, tables):
        with pytest.raises(AllocationError):
            tables.allocate_au(0, 0)

    def test_au_id_range(self, tables):
        with pytest.raises(AddressError):
            tables.allocate_au(0, 10 ** 9)

    def test_host_id_range(self, tables):
        with pytest.raises(AddressError):
            tables.register_host(16)

    def test_free_au_returns_dsns(self, tables, layout):
        hsn = layout.pack_hsn(0, 0, 5)
        tables.map_segment(hsn, 1234)
        freed = tables.free_au(0, 0)
        assert freed == [1234]
        assert not tables.is_dsn_live(1234)

    def test_free_unallocated_au_rejected(self, tables):
        with pytest.raises(TranslationError):
            tables.free_au(0, 7)


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
        tables.allocate_au(0, 1)
        with pytest.raises(AddressError, match="DSN out of range in batch"):
            tables.map_au_segments(0, 1, [20, dsn, 21])
        assert tables.live_dsns() == [8, 9]
        assert tables.mapped_segment_count == 2

    def test_the_last_device_segment_maps(self, tables, layout):
        last = layout.geometry.total_segments - 1
        tables.map_segment(layout.pack_hsn(0, 0, 0), last)
        assert tables.live_dsns() == [last]
        assert tables.hsn_of_dsn(last) == layout.pack_hsn(0, 0, 0)
