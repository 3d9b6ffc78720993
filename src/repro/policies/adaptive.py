"""Adaptive demotion: MPSM vs self-refresh from observed idle gaps.

The paper picks the park depth statically per deployment; Lu et al.
(PAPERS.md) argue the break-even point depends on how long ranks
actually stay idle.  MPSM draws 0.068 RSU against self-refresh's 0.2,
but costs a deeper 700 ns exit and loses contents — so short, frequent
parks want the shallow state and long quiet spells want the deep one.

This policy keeps the paper's victim selection and hotness prediction
untouched and swaps only :meth:`demotion_level`, reading the per-rank
idle-gap histograms that both hosts feed via ``observe_idle_gap``:

* power-down site: if the median observed park is shorter than
  :data:`SHORT_PARK_NS`, park in SELF_REFRESH (cheap 500 ns exit)
  instead of MPSM; with no history yet, trust the paper's MPSM default.
* self-refresh site: if the median residency is shorter than
  :data:`SR_THRASH_NS`, the block is wake-thrashing — answer
  STAY_ACTIVE and let the quiet timer re-arm rather than paying another
  entry/exit round-trip.

The four thresholds are module constants, not knobs: the tournament
compares policies by their decision rule, and no run tunes them.
"""

from __future__ import annotations

from typing import Sequence

from repro.policies.idle import RankIdleTracker
from repro.policies.paper import PaperPolicy
from repro.policies.protocol import DemotionLevel, RankStats, register_policy

#: Idle-gap observations retained per rank.
IDLE_HISTORY = 32
#: Observations required on every rank of a group before its idle
#: distribution is trusted.
MIN_IDLE_SAMPLES = 3
#: Power-down demotion break-even: observed parks shorter than this
#: prefer self-refresh (cheap 500 ns exit) over MPSM (deeper 0.068 RSU,
#: 700 ns exit).
SHORT_PARK_NS = 1_000_000_000
#: Self-refresh residencies shorter than this signal wake-thrash.
SR_THRASH_NS = 250_000_000


@register_policy
class AdaptiveDemotionPolicy(PaperPolicy):
    """Paper victim selection with idle-histogram-driven demotion."""

    name = "adaptive"

    def __init__(self):
        self.idle = RankIdleTracker(IDLE_HISTORY)

    def observe_idle_gap(self, site: str, channel: int, rank: int,
                         gap_ns: float) -> None:
        self.idle.observe(site, channel, rank, gap_ns)

    def _median_gap(self, site: str,
                    stats: Sequence[RankStats]) -> float | None:
        """Worst (smallest) per-rank median across the group, requiring
        :data:`MIN_IDLE_SAMPLES` history on every rank; the group parks
        and wakes together, so its most restless member sets the depth."""
        worst: float | None = None
        for entry in stats:
            if (self.idle.samples(site, entry.channel, entry.rank)
                    < MIN_IDLE_SAMPLES):
                return None
            gap = self.idle.typical_gap_ns(site, entry.channel, entry.rank)
            if gap is None:
                return None
            if worst is None or gap < worst:
                worst = gap
        return worst

    def demotion_level(self, site: str,
                       stats: Sequence[RankStats]) -> DemotionLevel:
        gap = self._median_gap(site, stats)
        if site == "powerdown":
            if gap is not None and gap < SHORT_PARK_NS:
                return DemotionLevel.SELF_REFRESH
            return DemotionLevel.MPSM
        if gap is not None and gap < SR_THRASH_NS:
            return DemotionLevel.STAY_ACTIVE
        return DemotionLevel.SELF_REFRESH


__all__ = ["IDLE_HISTORY", "MIN_IDLE_SAMPLES", "SHORT_PARK_NS",
           "SR_THRASH_NS", "AdaptiveDemotionPolicy"]
