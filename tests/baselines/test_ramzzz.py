"""Unit tests for the RAMZzz-style baseline policy."""

import numpy as np
import pytest

from repro.baselines.ramzzz import EPOCH_NS, RamzzzConfig, RamzzzPolicy
from repro.core.addressing import HostAddressLayout
from repro.core.allocator import SegmentAllocator
from repro.core.tables import TranslationTables
from repro.core.translation import TranslationEngine
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.units import MIB


def make_policy(threshold=1000, granularity=1):
    geometry = DramGeometry(channels=2, ranks_per_channel=4,
                            rank_bytes=16 * MIB, segment_bytes=1 * MIB)
    device = DramDevice(geometry=geometry)
    allocator = SegmentAllocator(geometry)
    layout = HostAddressLayout(geometry, au_bytes=4 * MIB, max_hosts=2)
    tables = TranslationTables(layout)
    translation = TranslationEngine(layout, tables)
    policy = RamzzzPolicy(device, allocator, tables, translation,
                          RamzzzConfig(demote_threshold=threshold,
                                       victim_granularity=granularity))
    return policy, layout


def allocate(policy, layout, au_id, host=0):
    policy.tables.allocate_au(host, [au_id])
    dsns = policy.allocator.allocate(layout.segments_per_au)
    for offset, dsn in enumerate(dsns):
        policy.tables.map_segment(layout.pack_hsn(host, au_id, offset), dsn)
    return dsns


class TestAccessCounting:
    def test_counts_accumulate(self):
        policy, _ = make_policy()
        dsns = np.array([0, 0, 2])
        policy.on_batch(dsns, now_ns=0.0)
        assert policy.segment_counts[0] == 2
        assert policy.segment_counts[2] == 1

    def test_epoch_resets_counts(self):
        policy, _ = make_policy()
        policy.on_batch(np.array([0]), now_ns=0.0)
        policy.end_epoch(now_ns=1e8)
        assert policy.segment_counts[0] == 0


class TestWindowedContract:
    def test_tick_ends_epochs_on_the_step_schedule(self):
        """At the simulator's 50 ms steps and the default 100 ms epoch,
        ``tick`` ends an epoch at steps 2, 4, ... — the schedule the
        replay loop itself used to count out."""
        policy, _ = make_policy()
        step_ns = 50e6
        epoch_steps = max(1, int(EPOCH_NS / step_ns))
        fired = []
        for step in range(1, 21):
            before = policy.epoch_index
            policy.end_window()
            policy.tick(step * step_ns)
            if policy.epoch_index != before:
                fired.append(step)
        assert fired == [step for step in range(1, 21)
                         if step % epoch_steps == 0] == list(range(2, 21, 2))

    def test_bit_sample_is_ignored(self):
        policy, _ = make_policy()
        policy.on_batch(np.array([0, 2]), now_ns=0.0,
                        bit_dsns=np.array([2]))
        assert policy.segment_counts[[0, 2]].tolist() == [1, 1]


class TestDemotion:
    def test_quiet_block_demotes(self):
        policy, _ = make_policy(threshold=1000)
        # Touch only rank 0 segments; ranks 1-3 are epoch-quiet.
        policy.on_batch(np.array([policy.layout.rank_dsns(0, 0)[0]]), now_ns=0.0)
        demoted = policy.end_epoch(now_ns=1e8)
        assert demoted >= 1
        assert policy.sr_rank_count() >= 1

    def test_strict_threshold_blocks_demotion(self):
        policy, _ = make_policy(threshold=0)
        # Touch one segment in EVERY rank so nothing is fully quiet.
        touches = [policy.layout.rank_dsns(ch, rank)[0]
                   for ch in range(2) for rank in range(4)]
        policy.on_batch(np.array(touches), now_ns=0.0)
        assert policy.end_epoch(now_ns=1e8) == 0

    def test_access_wakes_block(self):
        policy, _ = make_policy(threshold=1000, granularity=2)
        policy.end_epoch(now_ns=1e8)  # everything quiet -> demote coldest
        assert policy.sr_rank_count() >= 2
        sleeping = next((ch, r.index)
                        for (ch, _), r in policy.device.ranks.items()
                        if r.state is PowerState.SELF_REFRESH)
        dsn = policy.layout.rank_dsns(*sleeping)[0]
        penalty = policy.on_batch(np.array([dsn]), now_ns=2e8)
        assert penalty > 0
        assert policy.wakeups == 1
        # The whole CKE block woke.
        channel, rank = sleeping
        partner = rank ^ 1
        assert policy.device.rank(channel, partner).state \
            is PowerState.STANDBY


class TestMigration:
    def test_hot_segments_evicted_from_cold_block(self):
        policy, layout = make_policy(threshold=0)
        dsns = allocate(policy, layout, 0)
        # Heat one segment inside what will be the coldest block.
        target = dsns[0]
        policy.on_batch(np.array([target] * 1), now_ns=0.0)
        hsn = policy.tables.hsn_of_dsn(target)
        policy.end_epoch(now_ns=1e8)
        # The mapping survived wherever the segment went.
        new_dsn = policy.tables.walk(hsn).dsn
        assert policy.tables.hsn_of_dsn(new_dsn) == hsn

    def test_migration_counts_bytes(self):
        policy, layout = make_policy(threshold=0)
        allocate(policy, layout, 0)
        before = policy.migrated_bytes_total
        policy.on_batch(np.array(policy.layout.rank_dsns(0, 0)[:4]), now_ns=0.0)
        policy.end_epoch(now_ns=1e8)
        assert policy.migrated_bytes_total >= before

    def test_mappings_stay_consistent_across_epochs(self):
        policy, layout = make_policy(threshold=0)
        dsns = allocate(policy, layout, 0)
        rng = np.random.default_rng(0)
        for epoch in range(5):
            touched = rng.choice(dsns, size=6)
            current = [policy.tables.walk(
                layout.pack_hsn(0, 0, off)).dsn
                for off in range(layout.segments_per_au)]
            policy.on_batch(np.array([policy.tables.walk(
                layout.pack_hsn(0, 0, off)).dsn
                for off in rng.integers(0, layout.segments_per_au, 6)]),
                now_ns=epoch * 1e8)
            policy.end_epoch(now_ns=(epoch + 1) * 1e8)
            for offset in range(layout.segments_per_au):
                hsn = layout.pack_hsn(0, 0, offset)
                dsn = policy.tables.walk(hsn).dsn
                assert policy.tables.hsn_of_dsn(dsn) == hsn
