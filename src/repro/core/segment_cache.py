"""Two-level segment mapping cache (SMC).

The DTL fronts its translation tables with a TLB-like cache hierarchy
(Section 3.2, Table 3):

* **L1 SMC** — 64-entry fully-associative, LRU.
* **L2 SMC** — 1024-entry 4-way set-associative, LRU.

Both map an HSN to its DSN.  A hit in L1 costs one controller cycle; an L1
miss that hits in L2 costs seven cycles; a full miss walks the three-level
table path (two SRAM accesses plus one DRAM access, Section 6.1).

The hierarchy is **inclusive**: every L1 entry is also present in L2, so
a single L2 invalidation (plus the back-invalidate it triggers) is enough
to purge a stale mapping.  :meth:`SegmentMappingCache.fill` enforces this
by back-invalidating L1 whenever an entry is evicted from L2.

Both levels use a **structure-of-arrays** layout — preallocated
tag/DSN/stamp arrays addressed by pure index arithmetic (the gem5
cache-model idiom), with a small hash index for O(1) scalar probes.
LRU order is a monotonic stamp per entry instead of dict ordering, which
is what lets the batch datapath classify a whole chunk of lookups against
the arrays and commit the resulting LRU state in bulk.  The reference
model the two cache classes are differential-tested against (per-set
lists of ways, linear scans) lives with its only consumer, in
``tests/core/way_list_cache_reference.py``.

Counters live in a :class:`~repro.telemetry.MetricsRegistry`;
:class:`CacheStats` is a thin view over those registry counters so legacy
callers keep reading ``cache.stats.hits`` unchanged.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.addressing import StructureSize
from repro.errors import ConfigurationError
from repro.telemetry import EventKind, EventTrace, MetricsRegistry

CONTROLLER_CLOCK_GHZ = 1.5
L1_SMC_HIT_CYCLES = 1
L2_SMC_HIT_CYCLES = 7


def cycles_to_ns(cycles: float, clock_ghz: float = CONTROLLER_CLOCK_GHZ) -> float:
    """Convert controller cycles to nanoseconds."""
    return cycles / clock_ghz


class CacheStats:
    """Hit/miss counters for one cache level.

    A thin view over registry-backed counters: constructing one without a
    registry gives it a private registry, so standalone use keeps working,
    while the controller passes its shared registry + a name prefix and the
    same numbers become visible in the telemetry snapshot.
    """

    def __init__(self, hits: int = 0, misses: int = 0,
                 invalidations: int = 0,
                 registry: MetricsRegistry | None = None,
                 prefix: str = "cache"):
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter(f"{prefix}.hits")
        self._misses = registry.counter(f"{prefix}.misses")
        self._invalidations = registry.counter(f"{prefix}.invalidations")
        if hits:
            self._hits.inc(hits)
        if misses:
            self._misses.inc(misses)
        if invalidations:
            self._invalidations.inc(invalidations)

    @property
    def hits(self) -> int:
        """Lookups served by this level."""
        return self._hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.set(value)

    @property
    def misses(self) -> int:
        """Lookups this level could not serve."""
        return self._misses.value

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.set(value)

    @property
    def invalidations(self) -> int:
        """Entries dropped by invalidate calls."""
        return self._invalidations.value

    @invalidations.setter
    def invalidations(self, value: int) -> None:
        self._invalidations.set(value)

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits / accesses (0.0 when never accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_ratio(self) -> float:
        """Misses / accesses (0.0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"invalidations={self.invalidations})")


class FullyAssociativeCache:
    """Fully-associative LRU cache of HSN -> DSN mappings (SoA layout).

    Tags, DSNs, and LRU stamps live in preallocated int64 arrays indexed
    by slot; a dict maps HSN -> slot for O(1) scalar probes.  A strictly
    monotonic clock stamps every LRU touch, so "LRU order" is simply
    ascending stamp order — the property the batch datapath exploits to
    commit a whole chunk's recency updates with one pass.
    """

    #: Tag value marking an empty slot (HSNs are non-negative).
    EMPTY = -1

    def __init__(self, entries: int, stats: CacheStats | None = None):
        if entries <= 0:
            raise ConfigurationError("cache must have at least one entry")
        self.entries = entries
        self._tags = np.full(entries, self.EMPTY, dtype=np.int64)
        self._dsns = np.zeros(entries, dtype=np.int64)
        self._stamps = np.zeros(entries, dtype=np.int64)
        self._slot_of: dict[int, int] = {}
        self._free = list(range(entries - 1, -1, -1))
        self._clock = 0
        self.stats = stats if stats is not None else CacheStats()

    def lookup(self, hsn: int) -> int | None:
        """Return the cached DSN for ``hsn`` or ``None`` on a miss."""
        slot = self._slot_of.get(hsn)
        if slot is None:
            self.stats.misses += 1
            return None
        self._clock += 1
        self._stamps[slot] = self._clock
        self.stats.hits += 1
        return int(self._dsns[slot])

    def insert(self, hsn: int, dsn: int) -> tuple[int, int] | None:
        """Insert a mapping; returns the evicted ``(hsn, dsn)`` if any."""
        slot = self._slot_of.get(hsn)
        evicted = None
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = int(np.argmin(self._stamps))
                old = int(self._tags[slot])
                evicted = (old, int(self._dsns[slot]))
                del self._slot_of[old]
            self._tags[slot] = hsn
            self._slot_of[hsn] = slot
        self._dsns[slot] = dsn
        self._clock += 1
        self._stamps[slot] = self._clock
        return evicted

    def invalidate(self, hsn: int) -> bool:
        """Drop the mapping for ``hsn``; returns True if it was present."""
        slot = self._slot_of.pop(hsn, None)
        if slot is None:
            return False
        self._tags[slot] = self.EMPTY
        self._free.append(slot)
        self.stats.invalidations += 1
        return True

    def hsns(self) -> list[int]:
        """HSNs currently cached (LRU first)."""
        if not self._slot_of:
            return []
        slots = np.fromiter(self._slot_of.values(), dtype=np.int64,
                            count=len(self._slot_of))
        order = np.argsort(self._stamps[slots], kind="stable")
        return [int(tag) for tag in self._tags[slots[order]]]

    def items(self) -> list[tuple[int, int]]:
        """``(hsn, dsn)`` pairs currently cached (arbitrary order)."""
        return [(hsn, int(self._dsns[slot]))
                for hsn, slot in self._slot_of.items()]

    def __contains__(self, hsn: int) -> bool:
        return hsn in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)


class SetAssociativeCache:
    """Set-associative LRU cache of HSN -> DSN mappings (SoA layout).

    ``(sets, ways)``-shaped tag/DSN/stamp arrays; the set index is
    ``hsn % sets`` and a dict maps HSN -> way for O(1) scalar probes.
    LRU within a set is ascending stamp order, shared with the L1 class's
    convention so the batch datapath treats both uniformly.
    """

    EMPTY = -1

    def __init__(self, entries: int, ways: int,
                 stats: CacheStats | None = None):
        if entries <= 0 or ways <= 0:
            raise ConfigurationError("entries and ways must be positive")
        if entries % ways:
            raise ConfigurationError(
                f"entries ({entries}) must be a multiple of ways ({ways})")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self._tags = np.full((self.sets, ways), self.EMPTY, dtype=np.int64)
        self._dsns = np.zeros((self.sets, ways), dtype=np.int64)
        self._stamps = np.zeros((self.sets, ways), dtype=np.int64)
        self._way_of: dict[int, int] = {}
        self._sizes = np.zeros(self.sets, dtype=np.int64)
        self._clock = 0
        self.stats = stats if stats is not None else CacheStats()

    def lookup(self, hsn: int) -> int | None:
        """Return the cached DSN for ``hsn`` or ``None`` on a miss."""
        way = self._way_of.get(hsn)
        if way is None:
            self.stats.misses += 1
            return None
        set_index = hsn % self.sets
        self._clock += 1
        self._stamps[set_index, way] = self._clock
        self.stats.hits += 1
        return int(self._dsns[set_index, way])

    def insert(self, hsn: int, dsn: int) -> tuple[int, int] | None:
        """Insert a mapping; returns the evicted ``(hsn, dsn)`` if any."""
        set_index = hsn % self.sets
        way = self._way_of.get(hsn)
        evicted = None
        if way is None:
            if self._sizes[set_index] >= self.ways:
                way = int(np.argmin(self._stamps[set_index]))
                old = int(self._tags[set_index, way])
                evicted = (old, int(self._dsns[set_index, way]))
                del self._way_of[old]
            else:
                way = int(np.argmax(self._tags[set_index] == self.EMPTY))
                self._sizes[set_index] += 1
            self._tags[set_index, way] = hsn
            self._way_of[hsn] = way
        self._dsns[set_index, way] = dsn
        self._clock += 1
        self._stamps[set_index, way] = self._clock
        return evicted

    def invalidate(self, hsn: int) -> bool:
        """Drop the mapping for ``hsn``; returns True if it was present."""
        way = self._way_of.pop(hsn, None)
        if way is None:
            return False
        set_index = hsn % self.sets
        self._tags[set_index, way] = self.EMPTY
        self._sizes[set_index] -= 1
        self.stats.invalidations += 1
        return True

    def hsns(self) -> list[int]:
        """HSNs currently cached (set by set, LRU first within a set)."""
        result: list[int] = []
        for set_index in np.nonzero(self._sizes)[0]:
            row = self._tags[set_index]
            valid = np.nonzero(row != self.EMPTY)[0]
            order = np.argsort(self._stamps[set_index][valid], kind="stable")
            result.extend(int(tag) for tag in row[valid[order]])
        return result

    def items(self) -> list[tuple[int, int]]:
        """``(hsn, dsn)`` pairs currently cached (arbitrary order)."""
        return [(hsn, int(self._dsns[hsn % self.sets, way]))
                for hsn, way in self._way_of.items()]

    def __contains__(self, hsn: int) -> bool:
        return hsn in self._way_of

    def __len__(self) -> int:
        return len(self._way_of)


@dataclass(frozen=True)
class SegmentCacheConfig:
    """SMC sizing (Table 3 defaults)."""

    l1_entries: int = 64
    l2_entries: int = 1024
    l2_ways: int = 4
    clock_ghz: float = CONTROLLER_CLOCK_GHZ
    l1_hit_cycles: int = L1_SMC_HIT_CYCLES
    l2_hit_cycles: int = L2_SMC_HIT_CYCLES

    @property
    def l1_hit_ns(self) -> float:
        """L1 SMC hit latency in nanoseconds."""
        return cycles_to_ns(self.l1_hit_cycles, self.clock_ghz)

    @property
    def l2_hit_ns(self) -> float:
        """L2 SMC hit latency in nanoseconds."""
        return cycles_to_ns(self.l2_hit_cycles, self.clock_ghz)

    @property
    def miss_probe_ns(self) -> float:
        """Cache-side cost of a full miss: both levels probed, no hit.

        The table-walk penalty (2 SRAM + 1 DRAM access) is charged
        separately by the translation engine; keeping the probe cost here
        and the walk cost there is what prevents double counting.
        """
        return self.l1_hit_ns + self.l2_hit_ns


@dataclass
class LookupResult:
    """Outcome of one SMC lookup."""

    dsn: int | None
    l1_hit: bool
    l2_hit: bool

    @property
    def full_miss(self) -> bool:
        """True when neither level held the mapping."""
        return not (self.l1_hit or self.l2_hit)


class _SetState:
    """Per-L2-set fill state for one batch chunk.

    Built lazily, only for sets that actually take a fill — promotion
    traffic never touches numpy per set.  Construction snapshots the
    set's LRU ``pool`` and free-way list from the start-of-chunk arrays
    (they are not mutated until commit, so a lazy build still observes
    chunk-entry state).  Victim scans skip tags the chunk has already
    promoted, filled, or evicted (the caller's ``consumed`` set): their
    stamps in the array are stale, and the scalar sequence would never
    pick them.
    """

    __slots__ = ("pool", "ptr", "free_ways")

    def __init__(self, l2: SetAssociativeCache, set_index: int):
        row = l2._tags[set_index].tolist()
        stamps = l2._stamps[set_index].tolist()
        dsns = l2._dsns[set_index].tolist()
        live = sorted((way for way in range(l2.ways) if row[way] != l2.EMPTY),
                      key=stamps.__getitem__)
        self.pool = [(row[way], dsns[way], way) for way in live]
        self.ptr = 0
        self.free_ways = [way for way in range(l2.ways)
                          if row[way] == l2.EMPTY]

    def next_victim(self, consumed: set[int]) -> tuple[int, int, int] | None:
        """Peek the next evictable initial entry (does not consume it).

        ``None`` when every chunk-entry resident is consumed: the scalar
        victim would be an entry this chunk touched, so the event loop
        ends the chunk before the fill that asked.
        """
        pool = self.pool
        ptr = self.ptr
        while True:
            if ptr >= len(pool):
                return None
            entry = pool[ptr]
            if entry[0] in consumed:
                ptr += 1
                continue
            self.ptr = ptr
            return entry


class _Chunk:
    """One chunk of a batch lookup, from plan through events to commit.

    Everything is indexed by *distinct*: the chunk's distinct HSNs in
    first-occurrence order.  ``first`` is each distinct's first position
    relative to the chunk start; ``slots`` / ``ways`` its L1 slot and L2
    way at chunk entry (``None`` = not resident), ``sets`` its L2 set and
    ``vals`` the DSN its occurrences read.  ``events`` is the heap of
    distincts still to insert; the event loop moves them to ``promos``
    or ``fills`` (with the way each fill took), records the entries its
    insertions removed, and truncates the per-distinct lists where it
    ends the chunk.
    """

    __slots__ = ("hsns", "first", "slots", "ways", "sets", "vals",
                 "events", "promos", "fills", "fill_ways", "removed_l1",
                 "l2_removed", "back_invalidations", "trace_ops")

    def __init__(self, hsns: list[int], first: list[int]):
        self.hsns = hsns
        self.first = first
        self.slots = self.ways = self.sets = self.vals = None
        self.events: list[int] = []
        self.promos: list[int] = []
        self.fills: list[int] = []
        self.fill_ways: list[int] = []
        self.removed_l1: list[tuple[int, int]] = []
        self.l2_removed: list[tuple[int, int, int]] = []
        self.back_invalidations = 0
        self.trace_ops: list[tuple[str, int, int]] | None = None


class SegmentMappingCache:
    """The two-level SMC: inclusive L1 over L2, both LRU.

    Inclusion is enforced on the only path that can break it: when
    :meth:`fill` evicts an entry from L2, the same HSN is back-invalidated
    from L1, so no L1 entry ever outlives its L2 copy.
    """

    def __init__(self, config: SegmentCacheConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 trace: EventTrace | None = None):
        self.config = config or SegmentCacheConfig()
        registry = registry if registry is not None else MetricsRegistry()
        # A permanently-disabled trace (the telemetry fast path) is
        # dropped here so fill/invalidate skip the record call outright.
        self._trace = trace if trace is not None and trace.enabled else None
        self.l1 = FullyAssociativeCache(
            self.config.l1_entries,
            stats=CacheStats(registry=registry, prefix="smc.l1"))
        self.l2 = SetAssociativeCache(
            self.config.l2_entries, self.config.l2_ways,
            stats=CacheStats(registry=registry, prefix="smc.l2"))
        self._back_invalidations = registry.counter("smc.back_invalidations")

    @property
    def back_invalidations(self) -> int:
        """L1 entries purged because their L2 copy was evicted."""
        return self._back_invalidations.value

    def table5_rows(self, hsn_bits: int,
                    dsn_bits: int) -> dict[str, StructureSize]:
        """The Table 5 rows the two levels are: an entry is an HSN tag,
        a DSN and a valid bit (the caches hold numbers, not widths, so
        the layouts' widths come from the caller)."""
        entry_bits = hsn_bits + dsn_bits + 1
        return {"l1_smc": StructureSize(self.l1._tags.size, entry_bits),
                "l2_smc": StructureSize(self.l2._tags.size, entry_bits)}

    def lookup(self, hsn: int) -> LookupResult:
        """Look up ``hsn`` in L1 then L2, promoting L2 hits into L1."""
        dsn = self.l1.lookup(hsn)
        if dsn is not None:
            return LookupResult(dsn=dsn, l1_hit=True, l2_hit=False)
        dsn = self.l2.lookup(hsn)
        if dsn is not None:
            # Promotion keeps inclusion: the entry is (still) in L2 here,
            # and any L1 eviction it causes only shrinks L1.
            self.l1.insert(hsn, dsn)
            return LookupResult(dsn=dsn, l1_hit=False, l2_hit=True)
        return LookupResult(dsn=None, l1_hit=False, l2_hit=False)

    def fill(self, hsn: int, dsn: int) -> None:
        """Install a mapping fetched from the tables into both levels."""
        evicted = self.l2.insert(hsn, dsn)
        if evicted is not None:
            # Back-invalidate: the L2 victim must not survive in L1, or a
            # later migration invalidating L2 would leave a stale L1 hit.
            if self.l1.invalidate(evicted[0]):
                self._back_invalidations.inc()
            if self._trace is not None:
                self._trace.record(EventKind.SMC_EVICT, hsn=evicted[0],
                                   dsn=evicted[1], level="l2")
        self.l1.insert(hsn, dsn)
        if self._trace is not None:
            self._trace.record(EventKind.SMC_FILL, hsn=hsn, dsn=dsn)

    def invalidate(self, hsn: int) -> bool:
        """Drop a mapping from both levels (used after migration)."""
        in_l1 = self.l1.invalidate(hsn)
        in_l2 = self.l2.invalidate(hsn)
        if (in_l1 or in_l2) and self._trace is not None:
            self._trace.record(EventKind.SMC_INVALIDATE, hsn=hsn)
        return in_l1 or in_l2

    def invalidate_batch(self, hsns: list[int] | np.ndarray) -> int:
        """:meth:`invalidate` for every element of ``hsns`` in order.

        Returns how many were resident.  A non-resident HSN costs one
        dict probe per level and an empty cache costs nothing — the
        control plane tears down whole VMs whose segments were mostly
        never accessed.  Resident HSNs go through :meth:`invalidate`
        itself, so L1 free-slot reuse, the per-level counters and the
        ``SMC_INVALIDATE`` events match the element-wise loop.
        """
        in_l1, in_l2 = self.l1._slot_of, self.l2._way_of
        if not in_l1 and not in_l2:
            return 0
        if isinstance(hsns, np.ndarray):
            hsns = hsns.tolist()
        return sum(self.invalidate(hsn) for hsn in hsns
                   if hsn in in_l2 or hsn in in_l1)

    # -- batch datapath -------------------------------------------------------

    def lookup_batch(self, hsns: np.ndarray,
                     resolve: Callable[[int], int],
                     resolve_batch: Callable[[np.ndarray], np.ndarray]
                     | None = None,
                     fires: Sequence[tuple[int, Callable[[], None]]] = (),
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve a whole HSN array with scalar-identical effects.

        Returns ``(dsns, l1_hits, l2_hits)`` arrays; hit/miss counters,
        LRU states, fills, evictions, and trace events end up identical
        to :meth:`lookup` + :meth:`fill` called per access in order
        (trace event identity holds for fills/evictions; see
        docs/PERF.md for the ordering contract).

        Full misses resolve through ``resolve_batch`` (one vectorised
        table walk per chunk) when given; ``resolve(hsn)`` serves the
        rare mid-chunk eviction of a pre-chunk resident.

        ``fires`` are ``(offset, drop)`` pairs in offset order, the SMC
        corruptions an armed fault plan schedules
        (``FaultInjector.on_smc_lookup_batch``).  A fire *cuts* the
        batch: no chunk reaches past its offset, and ``drop()`` runs
        right after the chunk ending with that lookup commits — exactly
        where the scalar sequence drops the corrupted entry, so every
        later lookup sees it gone.  The rest of the batch carries on in
        the same pass.

        The batch is consumed in *chunks*.  A chunk is planned over at
        most ``l1_entries`` distinct HSNs in first-occurrence order
        (:meth:`_plan_chunk`: residency from the two hash indexes and
        DSN values), its *insertions* — L2 promotions and fills, the
        rare events — run through a small ordered event loop
        (:meth:`_run_events`), which ends the chunk early exactly where
        a fill would break the bulk commit, and the resulting LRU state
        is committed in bulk (:meth:`_commit_chunk`).  Within a
        chunk every repeat occurrence is an L1 hit, so those three work
        per distinct, never per access; entries evicted from L1 or L2
        by an earlier in-chunk insertion are reclassified on the fly
        (L2 hit, or full miss with a fresh table walk) exactly as the
        scalar sequence would have produced.

        What is per access is done here, off one stable sort of the
        whole batch.  The sort yields, for every position, its previous
        occurrence (``prev``) and a dense distinct ID (``uid``): a
        position starts a distinct of the chunk beginning at ``start``
        iff its ``prev`` lies before ``start``, and ``uid`` maps every
        position of the chunk to its distinct with one scatter and one
        gather.  A served 128-access request is the base case: one
        pass through the loop below.
        """
        hsns = np.asarray(hsns, dtype=np.int64)
        n = len(hsns)
        out_dsns = np.empty(n, dtype=np.int64)
        # Hit classes start as "repeat": the commit flips the first
        # occurrence of every distinct an event inserted.
        out = (out_dsns, np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
        if not n:
            return out
        entries = self.l1.entries
        order = np.argsort(hsns, kind="stable")
        sorted_hsns = hsns[order]
        repeat = sorted_hsns[1:] == sorted_hsns[:-1]
        group = np.zeros(n, dtype=np.int64)
        np.cumsum(~repeat, out=group[1:])
        uid = np.empty(n, dtype=np.int64)
        uid[order] = group
        prev = np.full(n, -1, dtype=np.int64)
        prev[order[1:][repeat]] = order[:-1][repeat]
        # Scratch: uid -> chunk distinct index.  Only entries written by
        # the current chunk are ever read back.
        uid_to_d = np.empty(int(group[-1]) + 1, dtype=np.int64)
        max_window = 4 * self.config.l2_entries
        arange = np.arange(min(n, max_window) + 1)
        window = min(n, max_window)
        start = fire = 0
        cut = fires[0][0] + 1 if fires else n
        while start < n:
            span = min(window, cut - start)
            d_rel = np.flatnonzero(prev[start:start + span] < start)
            if len(d_rel) > entries:
                # L1 capacity: the chunk ends where the (entries+1)-th
                # distinct would appear.
                span = int(d_rel[entries])
                d_rel = d_rel[:entries]
            first = d_rel.tolist()
            d_pos = start + d_rel
            chunk = self._plan_chunk(hsns[d_pos].tolist(), first,
                                     resolve, resolve_batch)
            self._run_events(chunk, resolve)
            num_d = len(chunk.hsns)
            if num_d < len(first):
                # The event loop ended the chunk where the first distinct
                # it does not keep first appears.
                span = first[num_d]
            end = start + span
            uid_to_d[uid[d_pos[:num_d]]] = arange[:num_d]
            d_of_pos = uid_to_d[uid[start:end]]
            last = np.empty(num_d, dtype=np.int64)
            last[d_of_pos] = arange[:span]
            self._commit_chunk(chunk, start, span, last, out)
            out_dsns[start:end] = np.array(chunk.vals,
                                           dtype=np.int64)[d_of_pos]
            # Adapt the plan window to the workload so the plan scan
            # stays proportional to the chunk actually consumed.
            window = min(max_window, max(256, 4 * span))
            start = end
            if start == cut and fires:
                # The chunk just committed ends with a corrupted lookup.
                while fire < len(fires) and fires[fire][0] < start:
                    fires[fire][1]()
                    fire += 1
                cut = fires[fire][0] + 1 if fire < len(fires) else n
        return out

    def _plan_chunk(self, d_hsns: list[int], first: list[int], resolve,
                    resolve_batch) -> _Chunk:
        """Classify a chunk's distinct HSNs: residency and values.

        ``d_hsns`` are the candidate distincts in first-occurrence
        order, already limited by the caller to the one cut made up
        front:

        * **L1 capacity** — at most ``l1_entries`` distinct HSNs, so no
          in-chunk entry, once touched, can be the L1 LRU victim.

        The plan cuts nothing else: the event loop ends the chunk where
        an L2 fill actually breaks the bulk commit
        (:meth:`_run_events`).  Residency is read from the levels' hash
        indexes (chunk-entry state: nothing mutates before the commit).
        Values come from the level that holds the distinct; full misses
        walk the tables in one ``resolve_batch`` call.  Returns the
        chunk with every non-L1-resident distinct queued as an event.
        """
        l1, l2 = self.l1, self.l2
        chunk = _Chunk(d_hsns, first)
        slots = chunk.slots = list(map(l1._slot_of.get, d_hsns))
        if None not in slots:
            # All L1 hits: nothing is inserted, so nothing can be cut.
            chunk.vals = l1._dsns[slots].tolist()
            return chunk
        ways = chunk.ways = list(map(l2._way_of.get, d_hsns))
        sets = l2.sets
        set_of = chunk.sets = [hsn % sets for hsn in d_hsns]
        num_d = len(d_hsns)
        # Inclusion (L1 subset of L2) makes "no L2 way" exactly the full
        # misses and "L2 way but no L1 slot" the L2 hits.
        vals = chunk.vals = [0] * num_d
        resident = [i for i in range(num_d) if slots[i] is not None]
        # Ascending, so already a valid heap.
        events = chunk.events = [i for i in range(num_d) if slots[i] is None]
        hits2 = [i for i in events if ways[i] is not None]
        misses = [i for i in events if ways[i] is None]
        if resident:
            found = l1._dsns[[slots[i] for i in resident]].tolist()
            for i, dsn in zip(resident, found):
                vals[i] = dsn
        if hits2:
            found = l2._dsns[[set_of[i] for i in hits2],
                             [ways[i] for i in hits2]].tolist()
            for i, dsn in zip(hits2, found):
                vals[i] = dsn
        if misses:
            candidates = [d_hsns[i] for i in misses]
            if resolve_batch is not None:
                found = resolve_batch(
                    np.array(candidates, dtype=np.int64)).tolist()
            else:
                found = [int(resolve(hsn)) for hsn in candidates]
            for i, dsn in zip(misses, found):
                vals[i] = dsn
        return chunk

    def _run_events(self, chunk: _Chunk, resolve) -> None:
        """Run the chunk's insertions in first-occurrence order.

        Each event is one distinct's first occurrence missing L1: an L2
        promotion, or a fill (L2 insert, possible eviction with
        back-invalidation, then the L1 insert).  Nothing is written to
        the caches here — evictions are chosen from chunk-entry state
        plus what earlier events consumed, and recorded on the chunk for
        the commit.  Three invariants make that sufficient:

        * **L1 capacity** (the plan's cut) — a distinct touched earlier
          in the chunk is never the L1 victim, so the victim scan skips
          them; an L1-resident distinct evicted *before* its turn is
          pushed back as an event (an L2 hit, or a full miss if a fill
          took its L2 copy too).  Running out of L1 victims is an
          error: the cut rules it out.
        * **L2 associativity** — a set's victims come from its
          chunk-entry residents, never from entries this chunk
          promoted, filled or evicted (``consumed``).
        * **back-invalidation hazard** — an L1 hit refreshes L1 recency
          but *not* L2 recency, so a distinct that already hit in L1
          keeps its chunk-entry L2 stamp; a fill that evicts it from L2
          back-invalidates it out of L1 mid-chunk, and its later
          repeats are misses the bulk commit cannot express.

        The loop owns the last two cuts.  A fill whose set has no
        untouched resident left, or whose victim is a distinct that
        already hit in L1, is exactly where the scalar sequence breaks
        them, so the chunk ends just before that distinct: the chunk's
        per-distinct lists are truncated to the distincts before it,
        and what the earlier events recorded (evictions of later
        distincts included) is committed.  A chunk's first distinct
        trips neither check, so every chunk makes progress.
        """
        events = chunk.events
        if not events:
            return
        l1, l2 = self.l1, self.l2
        slot_of = l1._slot_of
        d_hsns, slots, ways, set_of, vals = (
            chunk.hsns, chunk.slots, chunk.ways, chunk.sets, chunk.vals)
        promos, fills, fill_ways = chunk.promos, chunk.fills, chunk.fill_ways
        removed_l1, l2_removed = chunk.removed_l1, chunk.l2_removed
        trace_ops = chunk.trace_ops = [] if self._trace is not None else None
        cp_get = dict(zip(d_hsns, range(len(d_hsns)))).get
        consumed: set[int] = set()
        l1_removed: set[int] = set()
        set_states: dict[int, _SetState] = {}
        free_l1 = len(l1._free)
        pool = None  # L1 (tag, slot) pairs, LRU first; scanned once
        heappop = heapq.heappop
        heappush = heapq.heappush
        while events:
            i = heappop(events)
            h = d_hsns[i]
            s = set_of[i]
            if ways[i] is not None and h not in consumed:
                # L2 hit (possibly a reclassified pre-turn L1
                # eviction): promote into L1.
                promos.append(i)
                if slots[i] is not None:
                    # Pushed event: take the value from the L2 copy
                    # (planned L2 hits were gathered already).
                    vals[i] = int(l2._dsns[s, ways[i]])
            else:
                # Full miss: pick the fill slot first.
                state = set_states.get(s)
                if state is None:
                    state = set_states[s] = _SetState(l2, s)
                victim = None
                if state.free_ways:
                    way = state.free_ways.pop()
                else:
                    victim = state.next_victim(consumed)
                    if victim is None:
                        break  # L2 associativity
                    tag = victim[0]
                    j = cp_get(tag)
                    if (j is not None and j < i and tag in slot_of
                            and tag not in l1_removed):
                        break  # back-invalidation hazard
                    way = victim[2]
                fills.append(i)
                fill_ways.append(way)
                if ways[i] is not None:
                    # Planned as an L2 hit but evicted pre-turn: the
                    # scalar sequence walks the tables here.
                    vals[i] = int(resolve(h))
                if victim is not None:
                    state.ptr += 1
                    tag, vdsn, vway = victim
                    consumed.add(tag)
                    l2_removed.append((s, tag, vway))
                    if trace_ops is not None:
                        trace_ops.append(("evict", tag, vdsn))
                    vslot = slot_of.get(tag)
                    if vslot is not None and tag not in l1_removed:
                        # Back-invalidation (scalar: l1.invalidate).
                        l1_removed.add(tag)
                        removed_l1.append((tag, vslot))
                        chunk.back_invalidations += 1
                        free_l1 += 1
                        j = cp_get(tag)
                        if j is not None:
                            # A later chunk distinct lost both its
                            # copies: replan it as a full miss.
                            heappush(events, j)
                if trace_ops is not None:
                    trace_ops.append(("fill", h, vals[i]))
            consumed.add(h)
            # L1 insertion (promotions and fills alike).
            if free_l1 > 0:
                free_l1 -= 1
                continue
            if pool is None:
                # Every slot in stamp order; the scan skips empty ones
                # (stale stamps) along with this chunk's removals.
                lru = np.argsort(l1._stamps)
                pool = zip(l1._tags[lru].tolist(), lru.tolist())
            for tag, slot in pool:
                if tag in l1_removed or tag == l1.EMPTY:
                    continue
                j = cp_get(tag)
                if j is None or j > i:
                    break  # not touched this chunk yet: evictable
            else:
                raise RuntimeError(
                    "SMC batch invariant violated: L1 out of victims")
            l1_removed.add(tag)
            removed_l1.append((tag, slot))
            if j is not None:
                # Pre-turn L1 eviction of a later chunk distinct: its
                # lookup becomes an L2 hit, unless a fill evicts its L2
                # copy before its turn.
                heappush(events, j)
        else:
            return
        # The chunk ends before distinct i.
        del d_hsns[i:], slots[i:], ways[i:], set_of[i:], vals[i:]

    def _commit_chunk(self, chunk: _Chunk, start: int, window: int,
                      last: np.ndarray, out) -> None:
        """Write one chunk's counters, LRU state and hit classes.

        ``window`` is the chunk's length in accesses and ``last`` the
        last position (relative to ``start``) of each distinct it keeps
        — the event loop may have truncated the chunk, so both are
        computed after it ran.  Removals the events recorded for
        distincts past the cut are committed like any other.  The
        invariants (the plan's cut and the loop's two) are what make a
        bulk commit exact:

        * **L1 capacity** — every kept distinct is in L1 at the end of
          the chunk, so stamping each at its last position reproduces
          the scalar end-of-chunk L1 LRU order, and every occurrence
          that is not an event's first occurrence is an L1 hit;
        * **L2 associativity** — filled and promoted tags are
          chunk-touched, hence unevictable, so the (set, way) pairs of
          one kind never collide and each kind scatters at once
          (removals, then fills, then promotion restamps);
        * **back-invalidation hazard** — no kept distinct lost its L2
          copy after hitting in L1, so L2 recency only moves at events,
          each stamped at its distinct's *first* position.

        Slot choice for new L1 entries is free (slot identity is
        invisible to LRU).
        """
        l1, l2 = self.l1, self.l2
        promos, fills = chunk.promos, chunk.fills
        # One new L1 entry per event (a first-time resident, or a
        # pre-turn eviction coming back), in distinct order.
        inserted = sorted(promos + fills)
        slots = chunk.slots
        l1.stats._hits.inc(window - len(inserted))
        stamps = last + (l1._clock + 1)
        l1._clock += window
        if not inserted:
            l1._stamps[slots] = stamps
            return
        d_hsns, first, vals = chunk.hsns, chunk.first, chunk.vals
        l1.stats._misses.inc(len(inserted))
        l2.stats._hits.inc(len(promos))
        l2.stats._misses.inc(len(fills))
        _, out_l1, out_l2 = out
        out_l1[[start + first[i] for i in inserted]] = False
        out_l2[[start + first[i] for i in promos]] = True
        if chunk.back_invalidations:
            l1.stats._invalidations.inc(chunk.back_invalidations)
            self._back_invalidations.inc(chunk.back_invalidations)
        # L1: removals, then the new entries, then every distinct's stamp.
        slot_of, free = l1._slot_of, l1._free
        for tag, slot in chunk.removed_l1:
            del slot_of[tag]
            l1._tags[slot] = l1.EMPTY
            free.append(slot)
        new_slots = free[-len(inserted):]
        del free[-len(inserted):]
        for i, slot in zip(inserted, new_slots):
            slots[i] = slot
        new_hsns = [d_hsns[i] for i in inserted]
        l1._tags[new_slots] = new_hsns
        l1._dsns[new_slots] = [vals[i] for i in inserted]
        slot_of.update(zip(new_hsns, new_slots))
        l1._stamps[slots] = stamps
        # L2: removals, then fills, then promotion restamps.
        base = l2._clock + 1
        l2._clock += window
        way_of = l2._way_of
        if chunk.l2_removed:
            r_set, r_tag, r_way = zip(*chunk.l2_removed)
            for tag in r_tag:
                del way_of[tag]
            l2._tags[r_set, r_way] = l2.EMPTY
            np.subtract.at(l2._sizes, list(r_set), 1)
        sets, ways = chunk.sets, chunk.ways
        if fills:
            f_set = [sets[i] for i in fills]
            f_tag = [d_hsns[i] for i in fills]
            f_way = chunk.fill_ways
            way_of.update(zip(f_tag, f_way))
            l2._tags[f_set, f_way] = f_tag
            l2._dsns[f_set, f_way] = [vals[i] for i in fills]
            l2._stamps[f_set, f_way] = [base + first[i] for i in fills]
            np.add.at(l2._sizes, f_set, 1)
        if promos:
            l2._stamps[[sets[i] for i in promos],
                       [ways[i] for i in promos]] = [
                           base + first[i] for i in promos]
        for kind, hsn_v, dsn_v in chunk.trace_ops or ():
            if kind == "evict":
                self._trace.record(EventKind.SMC_EVICT, hsn=hsn_v,
                                   dsn=dsn_v, level="l2")
            else:
                self._trace.record(EventKind.SMC_FILL, hsn=hsn_v, dsn=dsn_v)

    def latency_ns_batch(self, l1_hits: np.ndarray,
                         l2_hits: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`hit_latency_ns` over hit-class arrays."""
        config = self.config
        return np.where(
            l1_hits, config.l1_hit_ns,
            np.where(l2_hits, config.l1_hit_ns + config.l2_hit_ns,
                     config.miss_probe_ns))

    def hit_latency_ns(self, result: LookupResult) -> float:
        """Latency contribution of the cache portion of a lookup."""
        if result.l1_hit:
            return self.config.l1_hit_ns
        if result.l2_hit:
            return self.config.l1_hit_ns + self.config.l2_hit_ns
        # Full miss: both levels were probed and neither hit; the table
        # walk itself is charged by TranslationEngine.miss_penalty_ns.
        return self.config.miss_probe_ns

    def check_inclusion(self) -> list[int]:
        """HSNs present in L1 but missing from L2 (empty when inclusive)."""
        l2_hsns = set(self.l2.hsns())
        return [hsn for hsn in self.l1.hsns() if hsn not in l2_hsns]


__all__ = [
    "CONTROLLER_CLOCK_GHZ",
    "L1_SMC_HIT_CYCLES",
    "L2_SMC_HIT_CYCLES",
    "cycles_to_ns",
    "CacheStats",
    "FullyAssociativeCache",
    "SetAssociativeCache",
    "SegmentCacheConfig",
    "LookupResult",
    "SegmentMappingCache",
]
