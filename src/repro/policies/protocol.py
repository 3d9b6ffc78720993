"""The policy plug-in protocol behind power-down and self-refresh.

The paper hard-wires three families of decisions into its controllers:
*which ranks to evacuate* (victim selection), *where to put the data*
(hotness prediction / target scoring), and *how deep to park a rank*
(MPSM vs self-refresh vs stay-active).  This module extracts those
decisions into a :class:`Policy` object so competing strategies — the
paper's CLOCK/static behaviour, Lu et al.'s rank-aware adaptive
migrations, DReAM-style online re-arrangement — plug into the *same*
controller machinery and can be compared fairly (the ``tournament``
experiment in :mod:`repro.sim.tournament`).

Import boundary (enforced by ``tests/policies/test_policy_lint.py``):
this package may import only the standard library, ``numpy``,
:mod:`repro.units`, :mod:`repro.errors`, :mod:`repro.seeded`, and
:mod:`repro.dram.power`.
``repro.core.power_down`` / ``repro.core.self_refresh`` import *us*, so
importing any ``repro.core`` or ``repro.sim`` module here would be a
cycle — and, more importantly, a policy that decides through privileged
controller or SMC internals cannot be compared fairly against one that
only sees the protocol surface below.

The hosts hand policies three kinds of read-only state:

* :class:`RankStats` — a per-rank snapshot (allocation, utilisation,
  access counters, power state) built fresh at each decision point.
* A *cold-segment search* (see :class:`ColdSearch`) — the bounded
  migration-table scan surface, so hotness prediction can reuse the
  CLOCK hand or walk target ranks in its own order without touching
  the table arrays directly.
* Idle-gap observations via :meth:`Policy.observe_idle_gap` — how long
  parked ranks actually stayed parked, the signal adaptive demotion
  feeds on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.dram.power import PowerState


class DemotionLevel(enum.Enum):
    """How deep a policy parks a rank (or declines to park it).

    ``MPSM`` does not retain data (:meth:`PowerState.retains_data`), so
    the hosts only honour it for ranks holding no live segments and fall
    back to ``SELF_REFRESH`` otherwise.
    """

    STAY_ACTIVE = "stay_active"
    MPSM = "mpsm"
    SELF_REFRESH = "self_refresh"

    def park_state(self) -> PowerState | None:
        """The device power state this level parks a rank in."""
        if self is DemotionLevel.MPSM:
            return PowerState.MPSM
        if self is DemotionLevel.SELF_REFRESH:
            return PowerState.SELF_REFRESH
        return None


@dataclass(frozen=True)
class RankStats:
    """Read-only snapshot of one rank at a decision point.

    Attributes:
        channel / rank: Position on the device.
        allocated: Live segments in the rank.
        free: Unallocated segments in the rank.
        utilization: ``allocated / capacity``.
        access_count: Cumulative accesses the rank has served.
        window_count: Accesses in the current (open) 0.5 ms window
            (0 where the host does not track windows).
        last_window_count: Accesses in the last *closed* window.
        state: Current power state.
    """

    channel: int
    rank: int
    allocated: int
    free: int
    utilization: float
    access_count: int
    window_count: int
    last_window_count: int
    state: PowerState

    @classmethod
    def snapshot(cls, usage, rank, window_count: int = 0,
                 last_window_count: int = 0) -> "RankStats":
        """Snapshot one rank from the allocator's usage record and the
        device's rank object (duck-typed: this package may not import
        either); hosts that track access windows pass the counts."""
        return cls(channel=rank.channel, rank=rank.index,
                   allocated=usage.allocated, free=usage.free,
                   utilization=usage.utilization,
                   access_count=rank.access_count,
                   window_count=window_count,
                   last_window_count=last_window_count,
                   state=rank.state)

    @property
    def rank_id(self) -> tuple[int, int]:
        """The ``(channel, rank)`` pair allocator APIs key on."""
        return (self.channel, self.rank)


@runtime_checkable
class ColdSearch(Protocol):
    """Bounded cold-segment search surface handed to
    :meth:`Policy.sr_cold_partner`.

    Backed by the self-refresh host's migration table; every scan is
    bounded by ``tsp_scan_limit`` examined entries and clears access
    bits in passing (CLOCK second chance), exactly like the hardware
    TSP walk it models.
    """

    @property
    def target_ranks(self) -> list[int]:
        """Ranks cold segments may be collected from (non-victims)."""
        ...

    def window_count(self, rank: int) -> int:
        """Accesses to ``rank`` in the current (open) window."""
        ...

    def last_window_count(self, rank: int) -> int:
        """Accesses to ``rank`` in the last closed window."""
        ...

    def clock_scan(self) -> int | None:
        """The paper's TSP walk: scan the current target rank from the
        persistent CLOCK hand, rotating round-robin on both success and
        timeout.  Returns a cold DSN or ``None``."""
        ...

    def scan_rank(self, rank: int) -> int | None:
        """Scan one specific target rank from its persistent pointer
        without rotating the round-robin cursor.  Returns a cold DSN or
        ``None`` (timeout, or ``rank`` is not a target)."""
        ...


class Policy:
    """Base class for pluggable migration/demotion policies.

    Subclasses override the five decision methods; the observation
    hooks have no-op defaults.  One instance is shared by both hosts
    (the controller builds it once), so observations made on the
    power-down side inform self-refresh decisions and vice versa.

    A policy is built from its registry name alone: the hosts' knobs
    are the controller's :class:`~repro.core.config.DtlConfig`, and a
    policy's own thresholds are constants of its module.

    Decision methods must be deterministic functions of their arguments
    and previously observed state: the executor's result cache and the
    scalar/batch identity suite both rely on replayability.
    """

    #: Registry key; subclasses set their own.
    name = "abstract"

    # -- decisions ---------------------------------------------------------

    def powerdown_victims(self, channel: int,
                          candidates: Sequence[RankStats],
                          count: int) -> list[int] | None:
        """Pick ``count`` victim ranks of ``channel`` for consolidation.

        ``candidates`` are the standby, migration-free ranks in the
        host's iteration order; ``len(candidates) >= count`` is
        guaranteed.  Return rank indices, or ``None`` to skip this
        power-down opportunity.
        """
        raise NotImplementedError

    def consolidation_target(self, candidates: Sequence[RankStats],
                             ) -> RankStats | None:
        """Pick the rank the next run of evacuated segments goes to
        (hotness prediction).

        ``candidates`` all have free capacity and live on the victim's
        channel.  Return the chosen entry, or ``None`` when no target
        is acceptable (the host raises ``AllocationError``).

        Run-filling contract: the host does not ask once per segment.
        It fills the returned rank as far as the segments left to move
        reach and asks again only once that rank is full, so the answer
        must be one that would stand while the rank fills and nothing
        else changes.  Both shipped rules are unchanged by this — the
        paper's first maximum of utilisation only gains utilisation as
        it fills, and ``rank_aware``'s heat does not move because no
        access is served while a consolidation reserves.  A rule whose
        pick depends on the fill it causes (least-utilised-first) does
        not fit (docs/POLICIES.md, "Run-filling").
        """
        raise NotImplementedError

    def sr_victim_block(self, channel: int,
                        blocks: Sequence[tuple[int, ...]],
                        stats: dict[int, RankStats]) -> tuple[int, ...]:
        """Pick the self-refresh victim block for ``channel``.

        ``blocks`` are the aligned all-standby candidate blocks
        (``victim_granularity`` ranks each, at least two); the return
        value must be one of them (the wake path wakes whole blocks).
        """
        raise NotImplementedError

    def sr_cold_partner(self, channel: int,
                        search: ColdSearch) -> int | None:
        """Find a cold target-rank segment to swap with a hot victim.

        Called from the profiling CLOCK update; all table access goes
        through ``search``.  Returns a DSN or ``None`` (no cold entry
        within the scan bound).
        """
        raise NotImplementedError

    def demotion_level(self, site: str,
                       stats: Sequence[RankStats]) -> DemotionLevel:
        """How deep to park the ranks in ``stats``.

        ``site`` is ``"powerdown"`` (evacuated rank-group about to
        park; STAY_ACTIVE cancels the power-down before any data
        moves) or ``"sr"`` (profiled victim block about to enter
        self-refresh; STAY_ACTIVE re-arms the quiet timer instead).
        MPSM is honoured only for ranks with no live data.
        """
        raise NotImplementedError

    # -- observations ------------------------------------------------------

    def observe_idle_gap(self, site: str, channel: int, rank: int,
                         gap_ns: float) -> None:
        """One completed park: the rank slept ``gap_ns`` before waking.

        ``site`` is ``"powerdown"`` (MPSM/SR park duration until
        reactivation) or ``"sr"`` (self-refresh residency until an
        access woke the block).
        """

    def observe_window(self, channel: int, counts: dict[int, int]) -> None:
        """A closed 0.5 ms access window's per-rank counts."""


#: The policy registry: name -> class.
POLICIES: dict[str, type[Policy]] = {}


def register_policy(cls: type[Policy]) -> type[Policy]:
    """Class decorator adding ``cls`` to :data:`POLICIES` by its name."""
    name = cls.name
    if not name or name == "abstract":
        raise ValueError(f"{cls.__name__} needs a concrete name")
    if name in POLICIES:
        raise ValueError(f"policy {name!r} already registered")
    POLICIES[name] = cls
    return cls


def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(POLICIES))


def make_policy(name: str = "paper") -> Policy:
    """Build the registered policy ``name`` (default: the paper's)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; "
                       f"choices: {sorted(POLICIES)}") from None
    return cls()


__all__ = [
    "DemotionLevel",
    "RankStats",
    "ColdSearch",
    "Policy",
    "POLICIES",
    "register_policy",
    "available_policies",
    "make_policy",
]
