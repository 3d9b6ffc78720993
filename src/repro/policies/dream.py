"""DReAM-style online re-arrangement (PAPERS.md).

DReAM continuously re-arranges addresses so accesses concentrate on a
shrinking set of hot ranks.  The swap machinery already exists in the
self-refresh host; what DReAM changes is *where cold partners come
from*.  The paper's CLOCK walks target ranks round-robin, which spreads
collection pressure evenly; DReAM instead biases collection toward the
*coldest* target ranks, so cold data pools rank-by-rank and whole ranks
empty of heat sooner.

Concretely: :meth:`sr_cold_partner` orders target ranks by observed
window traffic (current + last closed window, ascending, rank index
breaking ties) and scans them via
:meth:`~repro.policies.protocol.ColdSearch.scan_rank`, which keeps the
per-rank persistent pointer but skips the host's round-robin rotation.
A per-channel cursor paces the *starting* position through the ordered
list: draining one rank on every call would spin its CLOCK hand so fast
that access bits never re-set between passes, turning the second-chance
filter off and harvesting recently-hot partners that immediately bounce
back (restore-and-replan thrash).  With pacing, colder ranks still see
more collection pressure — they sort earlier, so more probe sequences
reach them first — but every hand keeps enough slack for the bits to
mean something.  Victim selection and demotion stay the paper's; this
isolates the re-arrangement idea for the tournament.
"""

from __future__ import annotations

from repro.policies.paper import PaperPolicy
from repro.policies.protocol import ColdSearch, register_policy


@register_policy
class DreamRemapPolicy(PaperPolicy):
    """Coldness-ordered cold-partner collection with hand pacing."""

    name = "dream"

    def __init__(self):
        #: Per-channel start position into the coldness-ordered rank list.
        self._cursors: dict[int, int] = {}

    def sr_cold_partner(self, channel: int,
                        search: ColdSearch) -> int | None:
        ordered = sorted(
            search.target_ranks,
            key=lambda rank: (
                search.window_count(rank) + search.last_window_count(rank),
                rank,
            ),
        )
        if not ordered:
            return None
        start = self._cursors.get(channel, 0) % len(ordered)
        for offset in range(len(ordered)):
            rank = ordered[(start + offset) % len(ordered)]
            dsn = search.scan_rank(rank)
            if dsn is not None:
                self._cursors[channel] = (start + offset + 1) % len(ordered)
                return dsn
        return None


__all__ = ["DreamRemapPolicy"]
