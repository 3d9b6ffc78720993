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
the arrays and commit the resulting LRU state in bulk.  The
dict-ordered reference implementation the two cache classes are
differential-tested against lives with its only consumer, in
``tests/core/dict_cache_reference.py``.

Counters live in a :class:`~repro.telemetry.MetricsRegistry`;
:class:`CacheStats` is a thin view over those registry counters so legacy
callers keep reading ``cache.stats.hits`` unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

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

    def touch(self, hsn: int) -> bool:
        """Refresh ``hsn``'s LRU position without touching the stats."""
        slot = self._slot_of.get(hsn)
        if slot is None:
            return False
        self._clock += 1
        self._stamps[slot] = self._clock
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

    def next_victim(self, consumed: set[int]) -> tuple[int, int, int]:
        """Peek the next evictable initial entry (does not consume it)."""
        pool = self.pool
        ptr = self.ptr
        while True:
            if ptr >= len(pool):
                raise RuntimeError(
                    "SMC batch invariant violated: L2 set out of victims")
            entry = pool[ptr]
            if entry[0] in consumed:
                ptr += 1
                continue
            self.ptr = ptr
            return entry


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

        One stable sort of the whole batch yields, for every position,
        its previous occurrence and a dense distinct ID (uid); both
        cache levels are then probed **once per uid** for the whole
        batch, and the per-uid residency snapshot (``uid_in_l1``,
        ``uid_slot``, ``uid_in_l2``, ``uid_way``) is kept current
        incrementally as each chunk commits.  :meth:`_soa_chunk` cuts
        the chunks and documents the three invariants they uphold;
        within a chunk the DSN value, hit class, and final LRU stamp of
        every distinct are computed from the start-of-chunk state, and
        only *insertions* (L2 promotions and fills, the rare events) run
        through a small ordered event loop.  Entries evicted from L1 or
        L2 by an earlier in-chunk insertion are reclassified on the fly
        (L2 hit, or full miss with a fresh table walk) exactly as the
        scalar sequence would have produced.
        """
        hsns = np.asarray(hsns, dtype=np.int64)
        n = len(hsns)
        out_dsns = np.empty(n, dtype=np.int64)
        out_l1 = np.empty(n, dtype=bool)
        out_l2 = np.empty(n, dtype=bool)
        if not n:
            return out_dsns, out_l1, out_l2
        l1: FullyAssociativeCache = self.l1
        l2: SetAssociativeCache = self.l2
        order = np.argsort(hsns, kind="stable")
        sorted_hsns = hsns[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        if n > 1:
            new_group[1:] = sorted_hsns[1:] != sorted_hsns[:-1]
        uid = np.empty(n, dtype=np.int64)
        uid[order] = np.cumsum(new_group) - 1
        prev = np.full(n, -1, dtype=np.int64)
        if n > 1:
            repeat = ~new_group[1:]
            prev[order[1:][repeat]] = order[:-1][repeat]
        # One residency probe per distinct HSN for the entire batch;
        # chunk commits below keep the snapshot exact.
        unique_hsns = sorted_hsns[new_group]
        num_uids = len(unique_hsns)
        unique_list = unique_hsns.tolist()
        uid_map = {h: k for k, h in enumerate(unique_list)}
        uid_slot = np.fromiter(
            (l1._slot_of.get(h, -1) for h in unique_list),
            dtype=np.int64, count=num_uids)
        uid_in_l1 = uid_slot >= 0
        uid_set = unique_hsns % l2.sets
        eq = l2._tags[uid_set] == unique_hsns[:, None]
        uid_in_l2 = eq.any(axis=1)
        uid_way = np.argmax(eq, axis=1)
        # Scratch: uid -> chunk distinct index.  Only entries written by
        # the current chunk are ever read back.
        uid_to_d = np.empty(num_uids, dtype=np.int64)
        max_window = 4 * self.config.l2_entries
        arange = np.arange(min(n, max_window) + 1)
        ctx = (uid_map, uid_slot, uid_in_l1, uid_set, uid_in_l2, uid_way,
               arange)
        window = min(n, max_window)
        start = 0
        while start < n:
            end = self._soa_chunk(hsns, uid, prev, start,
                                  min(window, n - start), uid_to_d, ctx,
                                  out_dsns, out_l1, out_l2,
                                  resolve, resolve_batch)
            # Adapt the plan window to the workload so the plan scan
            # stays proportional to the chunk actually consumed.
            window = min(max_window, max(256, 4 * (end - start)))
            start = end
        return out_dsns, out_l1, out_l2

    def _soa_chunk(self, hsns, uid, prev, start, window, uid_to_d, ctx,
                   out_dsns, out_l1, out_l2, resolve, resolve_batch) -> int:
        """Plan, resolve, and commit one chunk; returns its end position.

        The chunk is cut just before the first distinct HSN (in
        first-occurrence order) that would break one of three
        invariants:

        * **L1 capacity** — at most ``l1_entries`` distinct HSNs, so no
          in-chunk entry, once touched, can be the L1 LRU victim;
        * **L2 associativity** — at most ``l2_ways`` distinct HSNs per
          L2 set, so touched in-chunk entries cannot be L2 victims;
        * **back-invalidation hazard** — an L1 hit refreshes L1 recency
          but *not* L2 recency, so a chunk HSN already resident in L1
          keeps its pre-chunk L2 age; a fill by another chunk HSN in
          the same L2 set could then evict it from L2 and
          back-invalidate it out of L1 mid-chunk, making a later repeat
          a full miss where the bulk accounting assumed an L1 hit.  The
          hazard needs, in one set, a chunk HSN resident in L1 plus a
          different chunk HSN absent from L2 (by inclusion never the
          same HSN), so a set may not collect both.

        Within such a chunk every repeat occurrence is an L1 hit.
        """
        l1: FullyAssociativeCache = self.l1
        l2: SetAssociativeCache = self.l2
        (uid_map, uid_slot, uid_in_l1, uid_set, uid_in_l2, uid_way,
         arange) = ctx
        slot_of = l1._slot_of
        # -- plan: distincts and invariant cuts -------------------------------
        first = prev[start:start + window] < start
        d_rel = np.flatnonzero(first)
        if len(d_rel) > l1.entries:
            # L1 capacity: the chunk ends where the (entries+1)-th
            # distinct would appear.
            window = int(d_rel[l1.entries])
            first = first[:window]
            d_rel = d_rel[:l1.entries]
        d_uid = uid[start + d_rel]
        num_d = len(d_uid)
        in_l1 = uid_in_l1[d_uid]
        l1_slots = uid_slot[d_uid]
        all_l1 = bool(in_l1.all())
        if not all_l1:
            d_hsns = hsns[start + d_rel]
            set_idx = uid_set[d_uid]
            in_l2 = uid_in_l2[d_uid]
            l2_way = uid_way[d_uid]
            not_l2 = ~in_l2
            cut_d = num_d
            if num_d > 1:
                # L2 associativity: > ways distincts in one set.  The
                # bincount screen skips the sort on clean chunks.
                counts = np.bincount(set_idx)
                if int(counts.max()) > l2.ways:
                    order_s = np.argsort(set_idx, kind="stable")
                    sorted_sets = set_idx[order_s]
                    rank_in_set = arange[:num_d] - np.searchsorted(
                        sorted_sets, sorted_sets, side="left")
                    over = rank_in_set >= l2.ways
                    cut_d = int(order_s[over].min())
                # Back-invalidation hazard: one set collecting both an
                # L1-resident distinct and a distinct absent from L2.
                # The isin screen (set overlap between the two kinds)
                # is a necessary condition for the ordered formula.
                l1_sets = set_idx[in_l1]
                if len(l1_sets):
                    miss_sets = set_idx[not_l2]
                    if len(miss_sets) and np.isin(miss_sets, l1_sets).any():
                        arange_d = arange[:num_d]
                        first_l1 = np.full(l2.sets, num_d, dtype=np.int64)
                        np.minimum.at(first_l1, l1_sets, arange_d[in_l1])
                        first_miss = np.full(l2.sets, num_d, dtype=np.int64)
                        np.minimum.at(first_miss, miss_sets,
                                      arange_d[not_l2])
                        hazard = (((first_l1[set_idx] < arange_d) & not_l2)
                                  | ((first_miss[set_idx] < arange_d)
                                     & in_l1))
                        if hazard.any():
                            cut_d = min(cut_d, int(np.argmax(hazard)))
            if cut_d < num_d:
                window = int(d_rel[cut_d])
                first = first[:window]
                num_d = cut_d
                d_rel = d_rel[:num_d]
                d_uid = d_uid[:num_d]
                d_hsns = d_hsns[:num_d]
                l1_slots = l1_slots[:num_d]
                in_l1 = in_l1[:num_d]
                set_idx = set_idx[:num_d]
                in_l2 = in_l2[:num_d]
                l2_way = l2_way[:num_d]
                not_l2 = not_l2[:num_d]
        # -- values and static classification ---------------------------------
        d_val = np.empty(num_d, dtype=np.int64)
        if in_l1.any():
            d_val[in_l1] = l1._dsns[l1_slots[in_l1]]
        if all_l1:
            d_l1 = in_l1
            d_l2 = np.zeros(num_d, dtype=bool)
            events: list[int] = []
        else:
            d_l1 = in_l1.copy()
            # Inclusion (L1 subset of L2) makes ~in_l2 exactly the full
            # misses and in_l2 & ~in_l1 the L2 hits.
            hit2 = in_l2 & ~in_l1
            if hit2.any():
                d_val[hit2] = l2._dsns[set_idx[hit2], l2_way[hit2]]
            d_l2 = hit2
            if not_l2.any():
                candidates = d_hsns[not_l2]
                if resolve_batch is not None:
                    d_val[not_l2] = resolve_batch(candidates)
                else:
                    d_val[not_l2] = np.fromiter(
                        (resolve(int(h)) for h in candidates),
                        dtype=np.int64, count=len(candidates))
            # flatnonzero yields ascending order: already a valid heap.
            events = np.flatnonzero(~in_l1).tolist()
        # -- event loop: insertions in first-occurrence order ------------------
        num_promote = num_fill = bi_count = 0
        removed_l1: list[tuple[int, int]] = []
        trace_ops: list[tuple[str, int, int]] | None = (
            [] if self._trace is not None else None)
        promo_idx: list[int] = []
        fill_idx: list[int] = []
        pushed: list[int] = []
        l2_removed: list[tuple[int, int, int]] = []
        l2_fills: list[tuple[int, int, int, int, int]] = []
        l2_promos: list[tuple[int, int, int]] = []
        dyn_cut = -1
        if events:
            d_hsns_list = d_hsns.tolist()
            set_list = set_idx.tolist()
            in_l1_list = in_l1.tolist()
            in_l2_list = in_l2.tolist()
            way_list = l2_way.tolist()
            rel_list = d_rel.tolist()
            chunk_pos = dict(zip(d_hsns_list, range(num_d)))
            cp_get = chunk_pos.get
            consumed: set[int] = set()
            l1_removed: set[int] = set()
            set_states: dict[int, _SetState] = {}
            free_l1 = len(l1._free)
            pool_tags: list[int] | None = None
            pool_slots: list[int] | None = None
            pool_ptr = 0
            heappop = heapq.heappop
            heappush = heapq.heappush
            while events:
                i = heappop(events)
                h = d_hsns_list[i]
                if in_l2_list[i] and h not in consumed:
                    # L2 hit (possibly a reclassified pre-turn L1
                    # eviction): promote into L1.
                    num_promote += 1
                    promo_idx.append(i)
                    s = set_list[i]
                    if in_l1_list[i]:
                        # Pushed event: take the value from the L2 copy
                        # (static hit2 distincts were gathered already).
                        d_val[i] = l2._dsns[s, way_list[i]]
                        pushed.append(i)
                    consumed.add(h)
                    l2_promos.append((s, way_list[i], rel_list[i]))
                else:
                    # Full miss: pick the fill slot first — evicting the
                    # L2 copy of a chunk distinct that already hit in L1
                    # (its L2 stamp is stale) would falsify the bulk
                    # repeat accounting, so the chunk ends before it.
                    s = set_list[i]
                    state = set_states.get(s)
                    if state is None:
                        state = _SetState(l2, s)
                        set_states[s] = state
                    victim = None
                    if state.free_ways:
                        way = state.free_ways.pop()
                    else:
                        victim = state.next_victim(consumed)
                        tag = victim[0]
                        j = cp_get(tag)
                        if (j is not None and j < i and tag in slot_of
                                and tag not in l1_removed):
                            dyn_cut = rel_list[i]
                            break
                        way = victim[2]
                    num_fill += 1
                    fill_idx.append(i)
                    if in_l1_list[i]:
                        pushed.append(i)
                    if in_l2_list[i]:
                        # Planned as an L2 hit but evicted pre-turn: the
                        # scalar sequence walks the tables here.
                        d_val[i] = resolve(h)
                    if victim is not None:
                        state.ptr += 1
                        tag, vdsn, _vway = victim
                        consumed.add(tag)
                        l2_removed.append((s, tag, _vway))
                        if trace_ops is not None:
                            trace_ops.append(("evict", tag, vdsn))
                        vslot = slot_of.get(tag)
                        if vslot is not None and tag not in l1_removed:
                            # Back-invalidation (scalar: l1.invalidate).
                            l1_removed.add(tag)
                            removed_l1.append((tag, vslot))
                            bi_count += 1
                            free_l1 += 1
                            j = cp_get(tag)
                            if j is not None:
                                # A later chunk distinct lost both its
                                # copies: replan it as a full miss.
                                heappush(events, j)
                    consumed.add(h)
                    l2_fills.append((s, h, int(d_val[i]), way, rel_list[i]))
                    if trace_ops is not None:
                        trace_ops.append(("fill", h, int(d_val[i])))
                # L1 insertion (promotions and fills alike).
                if free_l1 > 0:
                    free_l1 -= 1
                else:
                    if pool_tags is None:
                        occ = np.flatnonzero(l1._tags != l1.EMPTY)
                        lru = occ[np.argsort(l1._stamps[occ])]
                        pool_tags = l1._tags[lru].tolist()
                        pool_slots = lru.tolist()
                    while True:
                        if pool_ptr >= len(pool_tags):
                            raise RuntimeError(
                                "SMC batch invariant violated: L1 out of "
                                "victims")
                        tag = pool_tags[pool_ptr]
                        slot = pool_slots[pool_ptr]
                        pool_ptr += 1
                        if tag in l1_removed:
                            continue
                        j = cp_get(tag)
                        if j is not None and j < i:
                            continue  # touched this chunk: LRU-protected
                        break
                    l1_removed.add(tag)
                    removed_l1.append((tag, slot))
                    if j is not None:
                        # Pre-turn L1 eviction of a later chunk distinct:
                        # its lookup becomes an L2 hit (hazard invariant
                        # keeps its L2 copy safe from in-chunk fills).
                        heappush(events, j)
            if dyn_cut >= 0:
                window = dyn_cut
                first = first[:window]
                num_d = int(np.searchsorted(d_rel, window, side="left"))
                d_rel = d_rel[:num_d]
                d_uid = d_uid[:num_d]
                d_hsns = d_hsns[:num_d]
                d_l1 = d_l1[:num_d]
                d_l2 = d_l2[:num_d]
                d_val = d_val[:num_d]
                in_l1 = in_l1[:num_d]
                l1_slots = l1_slots[:num_d]
            if promo_idx:
                d_l1[promo_idx] = False
                d_l2[promo_idx] = True
            if fill_idx:
                d_l1[fill_idx] = False
                d_l2[fill_idx] = False
        # -- commit ------------------------------------------------------------
        end = start + window
        uid_to_d[d_uid] = arange[:num_d]
        d_of_pos = uid_to_d[uid[start:end]]
        out_dsns[start:end] = d_val[d_of_pos]
        out_l1[start:end] = np.where(first, d_l1[d_of_pos], True)
        out_l2[start:end] = np.where(first, d_l2[d_of_pos], False)
        num_events = num_promote + num_fill
        l1.stats.hits += window - num_events
        if num_events:
            l1.stats.misses += num_events
            l2.stats.hits += num_promote
            l2.stats.misses += num_fill
        if bi_count:
            l1.stats.invalidations += bi_count
            self._back_invalidations.inc(bi_count)
        # L1: remove, then insert and restamp with one scatter each.  The
        # scatter stamps every distinct at its last-occurrence position,
        # which is exactly the scalar end-of-chunk LRU order; slot choice
        # for new entries is free (slot identity is invisible to LRU).
        last_of_d = np.empty(num_d, dtype=np.int64)
        last_of_d[d_of_pos] = arange[:window]
        base = l1._clock
        l1._clock = base + window
        tags1, dsns1, stamps1 = l1._tags, l1._dsns, l1._stamps
        for tag, slot in removed_l1:
            del slot_of[tag]
            tags1[slot] = l1.EMPTY
            l1._free.append(slot)
            u = uid_map.get(tag)
            if u is not None:
                uid_in_l1[u] = False
        stamp_vals = base + 1 + last_of_d
        if num_events:
            need_new = ~in_l1
            if pushed:
                need_new[pushed] = True
            new_idx = np.flatnonzero(need_new)
            free = l1._free
            new_slots = np.asarray(free[-num_events:], dtype=np.int64)
            del free[-num_events:]
            tags1[new_slots] = d_hsns[new_idx]
            dsns1[new_slots] = d_val[new_idx]
            slots_all = np.empty(num_d, dtype=np.int64)
            slots_all[new_idx] = new_slots
            keep_idx = np.flatnonzero(~need_new)
            slots_all[keep_idx] = l1_slots[keep_idx]
            slot_of.update(zip(d_hsns[new_idx].tolist(), new_slots.tolist()))
            stamps1[slots_all] = stamp_vals
            uid_in_l1[d_uid] = True
            uid_slot[d_uid] = slots_all
        else:
            stamps1[l1_slots] = stamp_vals
        # L2: removals, then fills, then promotion restamps — scattered
        # per kind ((set, way) pairs never collide within a kind because
        # filled and promoted tags are chunk-touched, hence unevictable).
        if num_events:
            base2 = l2._clock
            l2._clock = base2 + window
            way_of = l2._way_of
            if l2_removed:
                r_set, r_tag, r_way = zip(*l2_removed)
                for tag in r_tag:
                    del way_of[tag]
                    u = uid_map.get(tag)
                    if u is not None:
                        uid_in_l2[u] = False
                l2._tags[r_set, r_way] = l2.EMPTY
                np.subtract.at(l2._sizes, list(r_set), 1)
            if l2_fills:
                f_set, f_tag, f_val, f_way, f_pos = zip(*l2_fills)
                way_of.update(zip(f_tag, f_way))
                l2._tags[f_set, f_way] = f_tag
                l2._dsns[f_set, f_way] = f_val
                l2._stamps[f_set, f_way] = np.asarray(f_pos) + (base2 + 1)
                np.add.at(l2._sizes, list(f_set), 1)
                fill_uids = d_uid[fill_idx]
                uid_in_l2[fill_uids] = True
                uid_way[fill_uids] = f_way
            if l2_promos:
                p_set, p_way, p_pos = zip(*l2_promos)
                l2._stamps[p_set, p_way] = np.asarray(p_pos) + (base2 + 1)
        if trace_ops:
            trace = self._trace
            for kind, hsn_v, dsn_v in trace_ops:
                if kind == "evict":
                    trace.record(EventKind.SMC_EVICT, hsn=hsn_v, dsn=dsn_v,
                                 level="l2")
                else:
                    trace.record(EventKind.SMC_FILL, hsn=hsn_v, dsn=dsn_v)
        return end

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
