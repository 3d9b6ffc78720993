"""Host-side cache hierarchy simulator.

Generates *post-cache* memory traces the way the paper does (Section 5.2,
Table 3): every host load/store is filtered through an inclusive
L1d -> L2 -> LLC hierarchy of set-associative LRU caches; only LLC misses
(and dirty evictions) reach the CXL memory device.

Defaults match Table 3:

=====  ======  ======  ===========
Level  Size    Ways    Replacement
=====  ======  ======  ===========
L1-d   32 KiB  8       LRU
L2     1 MiB   8       LRU
LLC    8 MiB   16      LRU
=====  ======  ======  ===========
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import CACHELINE_BYTES, KIB, MIB, is_power_of_two


@dataclass(frozen=True)
class CacheLevelConfig:
    """Sizing of one cache level."""

    name: str
    size_bytes: int
    ways: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * CACHELINE_BYTES):
            raise ConfigurationError(
                f"{self.name}: size must divide into ways x line size")
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(f"{self.name}: set count must be 2^n")

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.ways * CACHELINE_BYTES)


@dataclass
class CacheLevelStats:
    """Hit/miss/writeback counters for one level."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses / accesses (0.0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0


class CacheLevel:
    """One set-associative, write-back, write-allocate LRU cache."""

    def __init__(self, config: CacheLevelConfig):
        self.config = config
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.num_sets)]
        self.stats = CacheLevelStats()

    def _locate(self, line_addr: int) -> OrderedDict[int, bool]:
        return self._sets[line_addr % self.config.num_sets]

    def access(self, line_addr: int, is_write: bool) -> bool:
        """Look up one line; returns True on hit (updates LRU/dirty)."""
        cache_set = self._locate(line_addr)
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            if is_write:
                cache_set[line_addr] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, line_addr: int, dirty: bool) -> tuple[int, bool] | None:
        """Install a line; returns the evicted ``(line_addr, dirty)`` if any."""
        cache_set = self._locate(line_addr)
        victim = None
        if line_addr not in cache_set and len(cache_set) >= self.config.ways:
            victim = cache_set.popitem(last=False)
            if victim[1]:
                self.stats.writebacks += 1
        cache_set[line_addr] = dirty or cache_set.get(line_addr, False)
        cache_set.move_to_end(line_addr)
        return victim

    def invalidate(self, line_addr: int) -> tuple[bool, bool]:
        """Drop a line (back-invalidation for inclusion).

        Returns:
            ``(was_present, was_dirty)``.
        """
        cache_set = self._locate(line_addr)
        if line_addr in cache_set:
            dirty = cache_set.pop(line_addr)
            return True, dirty
        return False, False

    def __len__(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)


#: Table 3 host-side cache configuration.
PAPER_CACHE_LEVELS = (
    CacheLevelConfig("L1-d", 32 * KIB, 8),
    CacheLevelConfig("L2", 1 * MIB, 8),
    CacheLevelConfig("LLC", 8 * MIB, 16),
)


@dataclass
class MemoryRequest:
    """A post-cache request that reached the memory device."""

    line_addr: int
    is_write: bool

    @property
    def address(self) -> int:
        """Byte address of the cacheline."""
        return self.line_addr * CACHELINE_BYTES


class CacheHierarchy:
    """Inclusive multi-level hierarchy producing post-cache traces."""

    def __init__(self, levels: tuple[CacheLevelConfig, ...] = PAPER_CACHE_LEVELS):
        if not levels:
            raise ConfigurationError("hierarchy needs at least one level")
        self.levels = [CacheLevel(config) for config in levels]

    def access(self, address: int, is_write: bool) -> list[MemoryRequest]:
        """Run one host access; returns requests that reach memory.

        The returned list contains at most one demand fill (the LLC miss)
        plus any dirty writebacks evicted along the way.
        """
        line_addr = address // CACHELINE_BYTES
        requests: list[MemoryRequest] = []
        hit_level = -1
        for index, level in enumerate(self.levels):
            if level.access(line_addr, is_write and index == 0):
                hit_level = index
                break
        if hit_level == -1:
            requests.append(MemoryRequest(line_addr=line_addr, is_write=False))
            hit_level = len(self.levels)
        # Allocate the line into every level it missed in, outermost first,
        # so inner fills never evict the line an outer fill just installed.
        for index in range(hit_level - 1, -1, -1):
            self._install(index, line_addr, dirty=is_write and index == 0,
                          requests=requests)
        return requests

    def _install(self, index: int, line_addr: int, dirty: bool,
                 requests: list[MemoryRequest]) -> None:
        """Fill one level, handling the resulting eviction."""
        level = self.levels[index]
        victim = level.fill(line_addr, dirty)
        if victim is None:
            return
        victim_addr, victim_dirty = victim
        if index == len(self.levels) - 1:
            # LLC eviction: back-invalidate inner copies (inclusion) and
            # write back to memory if any copy was dirty.
            for inner in self.levels[:-1]:
                _, inner_dirty = inner.invalidate(victim_addr)
                victim_dirty = victim_dirty or inner_dirty
            if victim_dirty:
                requests.append(MemoryRequest(line_addr=victim_addr,
                                              is_write=True))
        elif victim_dirty:
            # Dirty eviction from an inner level lands in the next outer
            # level; a miss there allocates (and may evict recursively).
            outer = self.levels[index + 1]
            if not outer.access(victim_addr, is_write=True):
                self._install(index + 1, victim_addr, dirty=True,
                              requests=requests)

    def stats(self) -> dict[str, CacheLevelStats]:
        """Per-level statistics keyed by level name."""
        return {level.config.name: level.stats for level in self.levels}

    def llc_miss_ratio(self) -> float:
        """LLC miss ratio (fraction of LLC lookups that went to memory)."""
        return self.levels[-1].stats.miss_ratio


__all__ = [
    "CacheLevelConfig",
    "CacheLevelStats",
    "CacheLevel",
    "PAPER_CACHE_LEVELS",
    "MemoryRequest",
    "CacheHierarchy",
]
