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

Each level is an insertion-ordered dict, least recently used first (L2:
one per set): a touch is a pop and a reinsert, the victim is the first
key.  The batch datapath runs a chunk's distinct HSNs in order against
those dicts directly, so its only deferred work is the L1 recency of
repeats, the counters and the hit classes.  The reference model the two cache classes
are differential-tested against (per-set lists of ways, linear scans)
lives with its only consumer, in
``tests/core/way_list_cache_reference.py``.

Counters live in a :class:`~repro.telemetry.MetricsRegistry`;
:class:`CacheStats` is a thin view over those registry counters so legacy
callers keep reading ``cache.stats.hits`` unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from repro.core.addressing import StructureSize
from repro.errors import ConfigurationError
from repro.telemetry import EventKind, EventTrace, MetricsRegistry

CONTROLLER_CLOCK_GHZ = 1.5
L1_SMC_HIT_CYCLES = 1
L2_SMC_HIT_CYCLES = 7


def cycles_to_ns(cycles: float) -> float:
    """Convert controller cycles to nanoseconds."""
    return cycles / CONTROLLER_CLOCK_GHZ


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of an int64 array, without a
    comparison sort.

    A least-significant-digit radix sort over 16-bit digits of ``keys -
    keys.min()``: numpy sorts a 16-bit key stably by counting, so each
    pass is one counting sort of a digit plus one gather, and the key
    span decides the number of passes (one for HSNs below 2**16).
    """
    keys = np.asarray(keys, dtype=np.int64)
    if not len(keys):
        return np.empty(0, dtype=np.intp)
    low = np.minimum.reduce(keys)
    span = int(np.maximum.reduce(keys)) - int(low)
    # The int64 offsets wrap past 2**63; read as uint64 they are exact.
    order = (keys - low).astype(np.uint16).argsort(kind="stable")
    shift = 16
    while span >> shift:
        digit = ((keys[order] - low).view(np.uint64)
                 >> np.uint64(shift)).astype(np.uint16)
        order = order[digit.argsort(kind="stable")]
        shift += 16
    return order


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
    """Fully-associative LRU cache of HSN -> DSN mappings.

    One insertion-ordered dict, least recently used first: a touch is a
    pop and a reinsert, and the victim is the first key.
    """

    def __init__(self, entries: int, stats: CacheStats | None = None):
        if entries <= 0:
            raise ConfigurationError("cache must have at least one entry")
        self.entries = entries
        self._map: dict[int, int] = {}
        self.stats = stats if stats is not None else CacheStats()

    def lookup(self, hsn: int) -> int | None:
        """Return the cached DSN for ``hsn`` or ``None`` on a miss."""
        dsn = self._map.pop(hsn, None)
        if dsn is None:
            self.stats.misses += 1
            return None
        self._map[hsn] = dsn
        self.stats.hits += 1
        return dsn

    def insert(self, hsn: int, dsn: int) -> tuple[int, int] | None:
        """Insert a mapping; returns the evicted ``(hsn, dsn)`` if any."""
        entries = self._map
        evicted = None
        if entries.pop(hsn, None) is None and len(entries) >= self.entries:
            victim = next(iter(entries))
            evicted = (victim, entries.pop(victim))
        entries[hsn] = dsn
        return evicted

    def invalidate(self, hsn: int) -> bool:
        """Drop the mapping for ``hsn``; returns True if it was present."""
        if self._map.pop(hsn, None) is None:
            return False
        self.stats.invalidations += 1
        return True

    def hsns(self) -> list[int]:
        """HSNs currently cached (LRU first)."""
        return list(self._map)

    def items(self) -> list[tuple[int, int]]:
        """``(hsn, dsn)`` pairs currently cached (LRU first)."""
        return list(self._map.items())

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`items` as two int64 arrays, ``(hsns, dsns)``."""
        return (np.fromiter(self._map, np.int64, len(self._map)),
                np.fromiter(self._map.values(), np.int64, len(self._map)))

    def __contains__(self, hsn: int) -> bool:
        return hsn in self._map

    def __len__(self) -> int:
        return len(self._map)


class SetAssociativeCache:
    """Set-associative LRU cache of HSN -> DSN mappings.

    One insertion-ordered dict per set (the set index is
    ``hsn % sets``), each LRU first like the fully-associative level,
    plus a count of the resident entries.
    """

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
        self._sets: list[dict[int, int]] = [{} for _ in range(self.sets)]
        self._count = 0
        self.stats = stats if stats is not None else CacheStats()

    def lookup(self, hsn: int) -> int | None:
        """Return the cached DSN for ``hsn`` or ``None`` on a miss."""
        row = self._sets[hsn % self.sets]
        dsn = row.pop(hsn, None)
        if dsn is None:
            self.stats.misses += 1
            return None
        row[hsn] = dsn
        self.stats.hits += 1
        return dsn

    def insert(self, hsn: int, dsn: int) -> tuple[int, int] | None:
        """Insert a mapping; returns the evicted ``(hsn, dsn)`` if any."""
        row = self._sets[hsn % self.sets]
        evicted = None
        if row.pop(hsn, None) is None:
            if len(row) >= self.ways:
                victim = next(iter(row))
                evicted = (victim, row.pop(victim))
            else:
                self._count += 1
        row[hsn] = dsn
        return evicted

    def invalidate(self, hsn: int) -> bool:
        """Drop the mapping for ``hsn``; returns True if it was present."""
        if self._sets[hsn % self.sets].pop(hsn, None) is None:
            return False
        self._count -= 1
        self.stats.invalidations += 1
        return True

    def hsns(self) -> list[int]:
        """HSNs currently cached (set by set, LRU first within a set)."""
        return [hsn for row in self._sets for hsn in row]

    def items(self) -> list[tuple[int, int]]:
        """``(hsn, dsn)`` pairs currently cached (set by set, LRU first
        within a set)."""
        return [item for row in self._sets for item in row.items()]

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`items` as two int64 arrays, ``(hsns, dsns)``: one pass
        over the set dicts, no pair tuples."""
        return (np.fromiter(chain.from_iterable(self._sets), np.int64,
                            self._count),
                np.fromiter(chain.from_iterable(map(dict.values,
                                                    self._sets)),
                            np.int64, self._count))

    def __contains__(self, hsn: int) -> bool:
        return hsn in self._sets[hsn % self.sets]

    def __len__(self) -> int:
        return self._count


@dataclass(frozen=True)
class SegmentCacheConfig:
    """SMC sizing (Table 3 defaults)."""

    l1_entries: int = 64
    l2_entries: int = 1024
    l2_ways: int = 4

    @property
    def l1_hit_ns(self) -> float:
        """L1 SMC hit latency in nanoseconds."""
        return cycles_to_ns(L1_SMC_HIT_CYCLES)

    @property
    def l2_hit_ns(self) -> float:
        """L2 SMC hit latency in nanoseconds."""
        return cycles_to_ns(L2_SMC_HIT_CYCLES)

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
        return {"l1_smc": StructureSize(self.l1.entries, entry_bits),
                "l2_smc": StructureSize(self.l2.entries, entry_bits)}

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

        Returns how many were resident.  An HSN costs one dict pop per
        level and an empty cache costs nothing — the control plane tears
        down whole VMs at once.  The per-level counters advance once,
        and the ``SMC_INVALIDATE`` events of the resident HSNs go in as
        one columnar run, so both match the element-wise loop.
        """
        l1_map, l2 = self.l1._map, self.l2
        if not l1_map and not l2._count:
            return 0
        if isinstance(hsns, np.ndarray):
            hsns = hsns.tolist()
        rows, sets = l2._sets, l2.sets
        dropped: list[int] = []
        from_l1 = from_l2 = 0
        for hsn in hsns:
            in_l1 = l1_map.pop(hsn, None) is not None
            in_l2 = rows[hsn % sets].pop(hsn, None) is not None
            if in_l1 or in_l2:
                dropped.append(hsn)
                from_l1 += in_l1
                from_l2 += in_l2
        l2._count -= from_l2
        self.l1.stats._invalidations.inc(from_l1)
        l2.stats._invalidations.inc(from_l2)
        if dropped and self._trace is not None:
            self._trace.record_tail(EventKind.SMC_INVALIDATE,
                                    hsn=np.array(dropped, dtype=np.int64))
        return len(dropped)

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
        (see docs/PERF.md for the ordering contract).

        Full misses resolve through ``resolve_batch`` (one vectorised
        table walk per chunk) when given; ``resolve(hsn)`` serves the
        rare chunk-entry resident evicted before its turn.

        ``fires`` are ``(offset, drop)`` pairs in offset order, the SMC
        corruptions an armed fault plan schedules
        (``FaultInjector.on_smc_lookup_batch``).  A fire *cuts* the
        batch: no chunk reaches past its offset, and ``drop()`` runs
        right after the chunk ending with that lookup — exactly where
        the scalar sequence drops the corrupted entry, so every later
        lookup sees it gone.  The rest of the batch carries on in the
        same pass.

        The batch is consumed in *chunks* of at most ``l1_entries``
        distinct HSNs.  :meth:`_run_chunk` runs each distinct's first
        occurrence, in order, against the two levels; every repeat is
        then an L1 hit, so what is left per access is done here, off
        the stable order of the whole batch (:func:`stable_order`, a
        radix sort of 16-bit digits: one counting pass for every key
        span below 2**16).  That order yields, for every position, its
        previous and next occurrence (``prev``, ``following``) and a
        dense distinct ID (``uid``): a position starts a distinct of the
        chunk ``[start, end)`` iff its ``prev`` lies before ``start``,
        and is its last occurrence there iff its ``following`` lies at
        or past ``end``.  A served request is the base case: one pass
        through the loop below.

        An HSN resolves to one DSN for the whole call: nothing here
        remaps a segment, a fire's ``drop()`` only invalidates, and the
        walk after it returns the tables' DSN again (the SMC never
        disagrees with the tables, ``ConsistencyChecker.
        check_smc_coherence``).  So each chunk scatters its distincts'
        DSNs into a per-``uid`` array, and the DSN output is one gather
        of it at the end.
        """
        hsns = np.asarray(hsns, dtype=np.int64)
        n = len(hsns)
        if not n:
            return (np.empty(0, dtype=np.int64), np.ones(0, dtype=bool),
                    np.zeros(0, dtype=bool))
        l1 = self.l1
        l1_map = l1._map
        entries = l1.entries
        order = stable_order(hsns)
        sorted_hsns = hsns[order]
        starts = sorted_hsns[1:] != sorted_hsns[:-1]
        group = np.empty(n, dtype=np.int64)
        group[0] = 0
        np.add.accumulate(starts, dtype=np.int64, out=group[1:])
        uid = np.empty(n, dtype=np.int64)
        uid[order] = group
        # Previous and next occurrence; -1 and n where there is none.
        before, after = order[:-1], order[1:]
        prev = np.empty(n, dtype=np.int64)
        prev[after] = before
        prev[order[0]] = -1
        prev[after[starts]] = -1
        following = np.empty(n, dtype=np.int64)
        following[before] = after
        following[order[-1]] = n
        following[before[starts]] = n
        # The outputs outlive the call, so they are allocated after the
        # sort's scratch (the DSNs last of all, as one gather): allocated
        # first, they left glibc's heap too fragmented for the caller's
        # later large arrays (docs/PERF.md, "Dict-ordered chunks").  Each
        # access's level (0 L1, 1 L2, 2 table walk) starts as "repeat",
        # an L1 hit: each chunk sets the first occurrence of every
        # distinct it inserted into L1.
        levels = np.zeros(n, dtype=np.int8)
        uid_dsn = np.empty(int(group[-1]) + 1, dtype=np.int64)
        max_window = 4 * self.config.l2_entries
        window = min(n, max_window)
        start = fire = 0
        cut = fires[0][0] + 1 if fires else n
        while start < n:
            span = min(window, cut - start)
            d_rel = (prev[start:start + span] < start).nonzero()[0]
            if len(d_rel) > entries:
                # L1 capacity: the chunk ends where the (entries+1)-th
                # distinct would appear.
                span = int(d_rel[entries])
                d_rel = d_rel[:entries]
            d_pos = d_rel + start
            d_hsns = hsns[d_pos].tolist()
            vals, chunk_levels = self._run_chunk(d_hsns, resolve,
                                                 resolve_batch)
            num_d = len(vals)
            if num_d < len(d_hsns):
                # The chunk ended where its first unrun distinct appears.
                span = int(d_rel[num_d])
            end = start + span
            uid_dsn[uid[d_pos[:num_d]]] = vals
            # Every repeat was an L1 hit: the kept distincts go back in
            # at the MRU end in last-occurrence order.
            last = (following[start:end] >= end).nonzero()[0] + start
            l1_map.update(zip(hsns[last].tolist(),
                              uid_dsn[uid[last]].tolist()))
            promoted, filled = chunk_levels.count(1), chunk_levels.count(2)
            l1.stats._hits.inc(span - promoted - filled)
            if promoted or filled:
                l1.stats._misses.inc(promoted + filled)
                self.l2.stats._hits.inc(promoted)
                self.l2.stats._misses.inc(filled)
                levels[d_pos[:num_d]] = chunk_levels
            # Adapt the window to the workload so the distinct scan
            # stays proportional to the chunk actually consumed.
            window = min(max_window, max(256, 4 * span))
            start = end
            if start == cut and fires:
                # The chunk just run ends with a corrupted lookup.
                while fire < len(fires) and fires[fire][0] < start:
                    fires[fire][1]()
                    fire += 1
                cut = fires[fire][0] + 1 if fire < len(fires) else n
        return uid_dsn[uid], levels == 0, levels == 1

    def _run_chunk(self, d_hsns: list[int], resolve, resolve_batch,
                   ) -> tuple[list[int], list[int]]:
        """Run a chunk's distinct HSNs, in first-occurrence order,
        against both levels.

        Each distinct's first occurrence is what :meth:`lookup` (and
        :meth:`fill` on a full miss) would do: an L1 hit moves to the
        MRU end; a miss promotes from L2 or fills, the fill evicting
        its set's LRU entry, back-invalidating that from L1 and
        recording ``SMC_EVICT`` / ``SMC_FILL``; the L1 insert evicts
        L1's LRU entry.  Full misses at chunk entry walk the tables in
        one ``resolve_batch`` call; a chunk-entry resident an earlier
        fill evicted walks them through ``resolve`` at its turn.

        A distinct once run leaves L1 instead of moving to its MRU end
        (it still counts towards capacity), so L1's LRU is the victim;
        the caller puts the run ones back in last-occurrence order.

        Doing only the first occurrences is exact because the caller
        keeps at most ``l1_entries`` distincts, so a touched entry is
        never L1's LRU, and because L1 hits do not move L2 recency.
        The one thing a chunk cannot express is a fill whose L2 victim
        is a distinct it already touched (its later repeats would
        miss), so the chunk ends before the distinct that needs that
        fill; the first distinct never does.  Returns the kept
        distincts' DSNs and the level each was served from: 0 an L1 hit,
        1 promoted from L2, 2 filled from the tables.
        """
        l1_map = self.l1._map
        vals = list(map(l1_map.get, d_hsns))
        levels = [0] * len(vals)
        if None not in vals:
            list(map(l1_map.pop, d_hsns))
            return vals, levels
        first = vals.index(None)
        list(map(l1_map.pop, d_hsns[:first]))
        l2 = self.l2
        rows, sets, ways = l2._sets, l2.sets, l2.ways
        misses = [hsn for hsn, dsn in zip(d_hsns[first:], vals[first:])
                  if dsn is None and hsn not in rows[hsn % sets]]
        walked = {}
        if misses:
            if resolve_batch is not None:
                found = resolve_batch(
                    np.array(misses, dtype=np.int64)).tolist()
            else:
                found = [int(resolve(hsn)) for hsn in misses]
            walked = dict(zip(misses, found))
        capacity = self.l1.entries
        trace = self._trace
        index_of = None
        back_invalidations = 0
        for i, hsn in enumerate(d_hsns[first:], first):
            # Only an L1 resident at chunk entry can still be one.
            if vals[i] is not None:
                dsn = l1_map.pop(hsn, None)
                if dsn is not None:
                    continue
            row = rows[hsn % sets]
            dsn = row.pop(hsn, None)
            if dsn is not None:
                row[hsn] = dsn
                levels[i] = 1
            else:
                victim = next(iter(row)) if len(row) >= ways else None
                if victim is not None:
                    if index_of is None:
                        index_of = dict(zip(d_hsns, range(len(d_hsns))))
                    if index_of.get(victim, i) < i:
                        break  # the victim is a distinct already run
                dsn = walked.get(hsn)
                if dsn is None:
                    dsn = int(resolve(hsn))
                if victim is None:
                    l2._count += 1
                else:
                    victim_dsn = row.pop(victim)
                    if l1_map.pop(victim, None) is not None:
                        back_invalidations += 1
                    if trace is not None:
                        trace.record(EventKind.SMC_EVICT, hsn=victim,
                                     dsn=victim_dsn, level="l2")
                row[hsn] = dsn
                levels[i] = 2
                if trace is not None:
                    trace.record(EventKind.SMC_FILL, hsn=hsn, dsn=dsn)
            if len(l1_map) + i >= capacity:  # the i run ones count too
                del l1_map[next(iter(l1_map))]
            vals[i] = dsn
        else:
            i = len(d_hsns)
        del vals[i:], levels[i:]
        if back_invalidations:
            self.l1.stats._invalidations.inc(back_invalidations)
            self._back_invalidations.inc(back_invalidations)
        return vals, levels

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
