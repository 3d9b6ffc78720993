"""OrderedDict-backed reference caches for the SMC differential tests.

LRU order here is plain dict ordering, which makes these classes easy to
trust by inspection; ``test_fallback_seams.py`` drives them and the SoA
classes in :mod:`repro.core.segment_cache` through the same random
operation sequence and requires identical observable behaviour.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.segment_cache import CacheStats
from repro.errors import ConfigurationError


class DictFullyAssociativeCache:
    """OrderedDict-backed fully-associative LRU cache.

    The reference implementation for differential tests against
    :class:`~repro.core.segment_cache.FullyAssociativeCache`.
    """

    def __init__(self, entries: int, stats: CacheStats | None = None):
        if entries <= 0:
            raise ConfigurationError("cache must have at least one entry")
        self.entries = entries
        self._data: OrderedDict[int, int] = OrderedDict()
        self.stats = stats if stats is not None else CacheStats()

    def lookup(self, hsn: int) -> int | None:
        """Return the cached DSN for ``hsn`` or ``None`` on a miss."""
        if hsn in self._data:
            self._data.move_to_end(hsn)
            self.stats.hits += 1
            return self._data[hsn]
        self.stats.misses += 1
        return None

    def insert(self, hsn: int, dsn: int) -> tuple[int, int] | None:
        """Insert a mapping; returns the evicted ``(hsn, dsn)`` if any."""
        evicted = None
        if hsn not in self._data and len(self._data) >= self.entries:
            evicted = self._data.popitem(last=False)
        self._data[hsn] = dsn
        self._data.move_to_end(hsn)
        return evicted

    def invalidate(self, hsn: int) -> bool:
        """Drop the mapping for ``hsn``; returns True if it was present."""
        if hsn in self._data:
            del self._data[hsn]
            self.stats.invalidations += 1
            return True
        return False

    def touch(self, hsn: int) -> bool:
        """Refresh ``hsn``'s LRU position without touching the stats."""
        if hsn in self._data:
            self._data.move_to_end(hsn)
            return True
        return False

    def hsns(self) -> list[int]:
        """HSNs currently cached (LRU first)."""
        return list(self._data)

    def items(self) -> list[tuple[int, int]]:
        """``(hsn, dsn)`` pairs currently cached."""
        return list(self._data.items())

    def __contains__(self, hsn: int) -> bool:
        return hsn in self._data

    def __len__(self) -> int:
        return len(self._data)


class DictSetAssociativeCache:
    """OrderedDict-backed set-associative LRU cache.

    The reference implementation for differential tests against
    :class:`~repro.core.segment_cache.SetAssociativeCache`.
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
        self._sets: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(self.sets)]
        self.stats = stats if stats is not None else CacheStats()

    def _set_for(self, hsn: int) -> OrderedDict[int, int]:
        return self._sets[hsn % self.sets]

    def lookup(self, hsn: int) -> int | None:
        """Return the cached DSN for ``hsn`` or ``None`` on a miss."""
        cache_set = self._set_for(hsn)
        if hsn in cache_set:
            cache_set.move_to_end(hsn)
            self.stats.hits += 1
            return cache_set[hsn]
        self.stats.misses += 1
        return None

    def insert(self, hsn: int, dsn: int) -> tuple[int, int] | None:
        """Insert a mapping; returns the evicted ``(hsn, dsn)`` if any."""
        cache_set = self._set_for(hsn)
        evicted = None
        if hsn not in cache_set and len(cache_set) >= self.ways:
            evicted = cache_set.popitem(last=False)
        cache_set[hsn] = dsn
        cache_set.move_to_end(hsn)
        return evicted

    def invalidate(self, hsn: int) -> bool:
        """Drop the mapping for ``hsn``; returns True if it was present."""
        cache_set = self._set_for(hsn)
        if hsn in cache_set:
            del cache_set[hsn]
            self.stats.invalidations += 1
            return True
        return False

    def hsns(self) -> list[int]:
        """HSNs currently cached (set by set, LRU first within a set)."""
        return [hsn for cache_set in self._sets for hsn in cache_set]

    def items(self) -> list[tuple[int, int]]:
        """``(hsn, dsn)`` pairs currently cached."""
        return [pair for cache_set in self._sets
                for pair in cache_set.items()]

    def __contains__(self, hsn: int) -> bool:
        return hsn in self._set_for(hsn)

    def __len__(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)
