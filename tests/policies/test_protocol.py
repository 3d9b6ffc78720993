"""The Policy protocol surface: registry, host constructors, and the
built-in policies' unit behaviour (decisions on synthetic RankStats,
no simulator in the loop)."""

from __future__ import annotations

import warnings

import pytest

from repro.core.addressing import HostAddressLayout
from repro.core.allocator import SegmentAllocator
from repro.core.config import DtlConfig
from repro.core.migration import MigrationEngine
from repro.core.power_down import RankPowerDownPolicy
from repro.core.self_refresh import HotnessSelfRefreshPolicy
from repro.core.tables import TranslationTables
from repro.core.translation import TranslationEngine
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.policies import (AdaptiveDemotionPolicy, DemotionLevel,
                            DreamRemapPolicy, PaperPolicy,
                            RankAwareMigrationPolicy, RankIdleTracker,
                            RankStats, make_policy)
from repro.policies.adaptive import MIN_IDLE_SAMPLES, SHORT_PARK_NS
from repro.units import MIB


def stats(rank, allocated=0, free=8, utilization=0.0, access=0,
          window=0, last_window=0, channel=0,
          state=PowerState.STANDBY) -> RankStats:
    return RankStats(channel=channel, rank=rank, allocated=allocated,
                     free=free, utilization=utilization,
                     access_count=access, window_count=window,
                     last_window_count=last_window, state=state)


def powerdown_stack(**kwargs):
    geometry = DramGeometry(ranks_per_channel=4, rank_bytes=64 * MIB)
    device = DramDevice(geometry=geometry)
    allocator = SegmentAllocator(geometry)
    layout = HostAddressLayout(geometry, au_bytes=16 * MIB)
    tables = TranslationTables(layout)
    migration = MigrationEngine(geometry)
    return RankPowerDownPolicy(device, allocator, tables, migration,
                               **kwargs)


def selfrefresh_stack(**kwargs):
    geometry = DramGeometry(channels=2, ranks_per_channel=4,
                            rank_bytes=16 * MIB, segment_bytes=1 * MIB)
    device = DramDevice(geometry=geometry)
    allocator = SegmentAllocator(geometry)
    layout = HostAddressLayout(geometry, au_bytes=4 * MIB, max_hosts=2)
    tables = TranslationTables(layout)
    translation = TranslationEngine(layout, tables)
    migration = MigrationEngine(geometry)
    return HotnessSelfRefreshPolicy(device, allocator, tables, translation,
                                    migration, **kwargs)


class TestPolicyConfig:
    """A policy is configured by its registry name alone; the hosts'
    knobs live on :class:`DtlConfig`."""

    def test_make_policy_accepts_config_name_or_default(self):
        assert isinstance(make_policy(), PaperPolicy)
        assert isinstance(make_policy("dream"), DreamRemapPolicy)
        assert isinstance(make_policy("adaptive"), AdaptiveDemotionPolicy)

    def test_make_policy_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="rank_aware"):
            make_policy("no-such-policy")


class TestConfigOnlyConstructors:
    """Hosts take the controller's :class:`DtlConfig` and nothing else:
    any loose keyword is a plain ``TypeError`` from the constructor
    signature itself."""

    def test_powerdown_legacy_kwargs_are_gone(self):
        with pytest.raises(TypeError, match="group_granularity"):
            powerdown_stack(group_granularity=2, min_active_groups=2)

    def test_selfrefresh_legacy_kwargs_are_gone(self):
        with pytest.raises(TypeError, match="window_ns"):
            selfrefresh_stack(window_ns=1000.0, tsp_scan_limit=7)

    def test_unknown_kwarg_is_a_typeerror(self):
        with pytest.raises(TypeError, match="bogus"):
            powerdown_stack(bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            selfrefresh_stack(bogus=1)

    def test_shim_is_not_exported(self):
        import repro.policies as policies
        assert not hasattr(policies, "legacy_policy_config")

    def test_config_construction_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            host = powerdown_stack(config=DtlConfig(group_granularity=2))
            assert host.group_granularity == 2
            assert host.min_active_groups == 1
            assert isinstance(host.policy, PaperPolicy)
            sr_host = selfrefresh_stack(
                config=DtlConfig(tsp_scan_limit=7, policy="dream"))
            assert sr_host.tsp_scan_limit == 7
            assert isinstance(sr_host.policy, DreamRemapPolicy)


class TestPaperPolicy:
    def test_victims_are_least_allocated(self):
        policy = PaperPolicy()
        candidates = [stats(0, allocated=5), stats(1, allocated=1),
                      stats(2, allocated=3)]
        assert policy.powerdown_victims(0, candidates, 2) == [1, 2]

    def test_target_is_first_max_utilization(self):
        policy = PaperPolicy()
        candidates = [stats(0, utilization=0.5), stats(1, utilization=0.9),
                      stats(2, utilization=0.9)]
        assert policy.consolidation_target(candidates).rank == 1

    def test_victim_block_is_least_last_window_traffic(self):
        policy = PaperPolicy()
        blocks = [(0, 1), (2, 3)]
        table = {0: stats(0, last_window=9), 1: stats(1, last_window=9),
                 2: stats(2, last_window=1), 3: stats(3, last_window=1)}
        assert policy.sr_victim_block(0, blocks, table) == (2, 3)

    def test_demotion_is_static_per_site(self):
        policy = PaperPolicy()
        assert policy.demotion_level("powerdown", []) is DemotionLevel.MPSM
        assert policy.demotion_level("sr", []) is DemotionLevel.SELF_REFRESH


class TestRankAwarePolicy:
    def test_victims_are_coldest(self):
        policy = RankAwareMigrationPolicy()
        candidates = [stats(0, access=50), stats(1, access=5),
                      stats(2, access=20)]
        assert policy.powerdown_victims(0, candidates, 2) == [1, 2]

    def test_windowed_heat_outranks_cumulative(self):
        policy = RankAwareMigrationPolicy()
        candidates = [stats(0, access=100, window=1),
                      stats(1, access=5)]  # no window data: falls back
        assert policy.powerdown_victims(0, candidates, 1) == [0]

    def test_target_is_hottest_with_free(self):
        policy = RankAwareMigrationPolicy()
        candidates = [stats(0, access=10), stats(1, access=90)]
        assert policy.consolidation_target(candidates).rank == 1


class FakeSearch:
    """ColdSearch double returning scripted per-rank scan results."""

    def __init__(self, targets, counts, hits):
        self._targets = list(targets)
        self._counts = counts
        self._hits = dict(hits)
        self.scanned: list[int] = []

    @property
    def target_ranks(self):
        return list(self._targets)

    def window_count(self, rank):
        return self._counts.get(rank, 0)

    def last_window_count(self, rank):
        return 0

    def clock_scan(self):
        raise AssertionError("dream must not fall back to clock_scan")

    def scan_rank(self, rank):
        self.scanned.append(rank)
        return self._hits.get(rank)


class TestDreamPolicy:
    def test_scans_coldest_rank_first(self):
        policy = DreamRemapPolicy()
        search = FakeSearch(targets=[0, 1, 2], counts={0: 9, 1: 1, 2: 5},
                            hits={1: 41})
        assert policy.sr_cold_partner(0, search) == 41
        assert search.scanned == [1]

    def test_paces_the_start_across_calls(self):
        """Consecutive calls must not hammer one rank's CLOCK hand."""
        policy = DreamRemapPolicy()
        search = FakeSearch(targets=[0, 1, 2], counts={},
                            hits={0: 10, 1: 11, 2: 12})
        first = policy.sr_cold_partner(0, search)
        second = policy.sr_cold_partner(0, search)
        third = policy.sr_cold_partner(0, search)
        assert [first, second, third] == [10, 11, 12]

    def test_falls_through_to_next_cold_rank(self):
        policy = DreamRemapPolicy()
        search = FakeSearch(targets=[0, 1], counts={0: 1, 1: 9},
                            hits={1: 77})  # coldest rank has nothing
        assert policy.sr_cold_partner(0, search) == 77
        assert search.scanned == [0, 1]

    def test_empty_targets_returns_none(self):
        assert DreamRemapPolicy().sr_cold_partner(0, FakeSearch(
            targets=[], counts={}, hits={})) is None


class TestAdaptivePolicy:
    def feed(self, policy, site, rank, gaps):
        for gap in gaps:
            policy.observe_idle_gap(site, 0, rank, gap)

    def test_defaults_to_paper_without_history(self):
        policy = AdaptiveDemotionPolicy()
        group = [stats(0), stats(1)]
        assert policy.demotion_level("powerdown", group) \
            is DemotionLevel.MPSM
        assert policy.demotion_level("sr", group) \
            is DemotionLevel.SELF_REFRESH

    def test_short_parks_prefer_self_refresh(self):
        assert SHORT_PARK_NS == 1e9
        policy = AdaptiveDemotionPolicy()
        self.feed(policy, "powerdown", 0, [1e6, 2e6, 3e6])
        assert policy.demotion_level("powerdown", [stats(0)]) \
            is DemotionLevel.SELF_REFRESH

    def test_long_parks_keep_mpsm(self):
        policy = AdaptiveDemotionPolicy()
        self.feed(policy, "powerdown", 0, [5e9, 6e9, 7e9])
        assert policy.demotion_level("powerdown", [stats(0)]) \
            is DemotionLevel.MPSM

    def test_sr_thrash_answers_stay_active(self):
        policy = AdaptiveDemotionPolicy()
        self.feed(policy, "sr", 0, [1e6, 1e6, 1e6])
        assert policy.demotion_level("sr", [stats(0)]) \
            is DemotionLevel.STAY_ACTIVE

    def test_group_is_judged_by_its_most_restless_member(self):
        policy = AdaptiveDemotionPolicy()
        self.feed(policy, "powerdown", 0, [5e9, 6e9, 7e9])  # long sleeper
        self.feed(policy, "powerdown", 1, [1e6, 1e6, 1e6])  # thrasher
        assert policy.demotion_level("powerdown",
                                     [stats(0), stats(1)]) \
            is DemotionLevel.SELF_REFRESH

    def test_partial_history_in_group_defaults(self):
        assert MIN_IDLE_SAMPLES == 3
        policy = AdaptiveDemotionPolicy()
        self.feed(policy, "powerdown", 0, [1e6, 1e6, 1e6])
        self.feed(policy, "powerdown", 1, [1e6])  # below min_idle_samples
        assert policy.demotion_level("powerdown",
                                     [stats(0), stats(1)]) \
            is DemotionLevel.MPSM


class TestIdleTracker:
    def test_median_and_bounded_history(self):
        tracker = RankIdleTracker(history=3)
        for gap in (1.0, 2.0, 3.0, 100.0):
            tracker.observe("sr", 0, 0, gap)
        assert tracker.samples("sr", 0, 0) == 3  # 1.0 fell off
        assert tracker.typical_gap_ns("sr", 0, 0) == 3.0

    def test_unseen_rank_is_empty(self):
        tracker = RankIdleTracker()
        assert tracker.samples("sr", 0, 9) == 0
        assert tracker.typical_gap_ns("sr", 0, 9) is None

    def test_history_must_be_positive(self):
        with pytest.raises(ValueError):
            RankIdleTracker(history=0)
