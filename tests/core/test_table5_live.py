"""Table 5 held against the structures the controller runs on.

``repro.analysis.structures`` reproduces Table 5 by closed-form
arithmetic and ``benchmarks/test_tab05_structures.py`` holds that
arithmetic against the paper.  Here the other side: every live structure
declares ``(entries, paper_entry_bits)`` — entries counted from its own
arrays — and ``entries * bits // 8`` must equal the sizing model's row.

The paper's 384 GB testbed has six channels; a ``DramGeometry`` packs
channel, rank and segment index into bit fields, so it only builds
power-of-two devices.  The model under test is therefore ``MODEL_384GB``
itself with nothing but its capacity, channel and rank counts replaced
by the live geometry's — the same entry widths and formulas that give
the paper's 552 KB / 432 KB at 384 GB — at the two power-of-two devices
either side of 384 GB and at a small one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.structures import MODEL_384GB, PAPER_TABLE5
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.units import GIB, MIB

GEOMETRIES = {
    "256GiB": DramGeometry(channels=4, ranks_per_channel=8,
                           rank_bytes=8 * GIB),
    "512GiB": DramGeometry(channels=4, ranks_per_channel=8,
                           rank_bytes=16 * GIB),
    "512MiB": DramGeometry(channels=2, ranks_per_channel=4,
                           rank_bytes=64 * MIB),
}

#: Rows with no live structure: the flat forward table is indexed by the
#: packed HSN, so there is no host-base or AU-base table to walk.
NOT_LIVE = {"host_base_table", "au_base_table"}


def model_for(controller: DtlController):
    geometry = controller.geometry
    return dataclasses.replace(
        MODEL_384GB, capacity_bytes=geometry.total_bytes,
        channels=geometry.channels,
        ranks_per_channel=geometry.ranks_per_channel,
        segment_bytes=geometry.segment_bytes,
        au_bytes=controller.config.au_bytes,
        max_hosts=controller.host_layout.max_hosts,
        l1_smc_entries=controller.config.cache.l1_entries,
        l2_smc_entries=controller.config.cache.l2_entries)


@pytest.mark.parametrize("name", GEOMETRIES)
def test_live_structures_are_the_table5_rows(name):
    au_bytes = 16 * MIB if name == "512MiB" else 2 * GIB
    controller = DtlController(DtlConfig(geometry=GEOMETRIES[name],
                                         au_bytes=au_bytes))
    rows = controller.table5_rows()
    report = model_for(controller).report()
    assert set(rows) == set(report) - NOT_LIVE
    for row, size in rows.items():
        assert size.paper_bytes == report[row], row


def test_the_model_held_to_the_implementation_is_the_papers():
    """``model_for`` changes nothing in ``MODEL_384GB`` but the device:
    at the paper's device it is the Table 5 column."""
    controller = DtlController(DtlConfig(geometry=GEOMETRIES["256GiB"]))
    model = model_for(controller)
    assert dataclasses.replace(
        model, capacity_bytes=MODEL_384GB.capacity_bytes,
        channels=MODEL_384GB.channels,
        ranks_per_channel=MODEL_384GB.ranks_per_channel) == MODEL_384GB
    report = MODEL_384GB.report()
    assert report["reverse_mapping_table"] == 552 * 1024
    assert report["free_segment_queues"] == 432 * 1024 \
        == report["allocated_segment_queues"] == report["migration_table"]
    for row, paper in PAPER_TABLE5["384GB"].items():
        assert report[row] == pytest.approx(paper, rel=0.15), row


def test_entries_are_counted_from_the_arrays():
    """A declaration that stopped following its array would still pass
    the arithmetic; pin the counts to the objects themselves."""
    controller = DtlController(DtlConfig(geometry=GEOMETRIES["512MiB"],
                                         au_bytes=16 * MIB))
    segments = controller.geometry.total_segments
    rows = controller.table5_rows()
    assert rows["reverse_mapping_table"].entries == segments \
        == len(controller.tables.live_dsns()) \
        + controller.allocator.free_count()
    assert rows["free_segment_queues"].entries == segments == sum(
        len(controller.allocator.free_dsns_in_rank(rank_id))
        for rank_id in controller.device.ranks)
    assert rows["migration_table"].entries \
        == len(controller.self_refresh.access_bits)
    assert rows["l1_smc"].entries == controller.config.cache.l1_entries
    assert rows["l2_smc"].entries == controller.config.cache.l2_entries
    # Without the self-refresh policy there is no migration table.
    plain = DtlController(DtlConfig(geometry=GEOMETRIES["512MiB"],
                                    au_bytes=16 * MIB,
                                    enable_self_refresh=False))
    assert "migration_table" not in plain.table5_rows()
