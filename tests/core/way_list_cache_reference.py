"""Reference LRU cache for the SMC differential tests.

The gem5 cache-model idiom, unoptimised: a list of sets, each a list of
``{tag, valid, dsn, last_access}`` ways, every operation a linear scan.
Easy to trust by inspection; ``test_fallback_seams.py`` drives it and
the level classes in :mod:`repro.core.segment_cache` through one random
operation sequence and requires identical observable behaviour.  A
fully-associative cache is the one-set case (``ways == entries``).
"""

from __future__ import annotations

from types import SimpleNamespace


class WayListCache:
    """Set-associative LRU cache of HSN -> DSN mappings."""

    def __init__(self, entries: int, ways: int):
        self.sets = [[{"tag": 0, "valid": False, "dsn": 0, "last_access": 0}
                      for _ in range(ways)]
                     for _ in range(entries // ways)]
        self.clock = 0
        self.stats = SimpleNamespace(hits=0, misses=0, invalidations=0)

    def _way(self, hsn: int) -> dict | None:
        for way in self.sets[hsn % len(self.sets)]:
            if way["valid"] and way["tag"] == hsn:
                return way
        return None

    def _stamp(self, way: dict) -> None:
        self.clock += 1
        way["last_access"] = self.clock

    def lookup(self, hsn: int) -> int | None:
        way = self._way(hsn)
        if way is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._stamp(way)
        return way["dsn"]

    def insert(self, hsn: int, dsn: int) -> tuple[int, int] | None:
        """Returns the evicted ``(hsn, dsn)`` if the set was full."""
        way, evicted = self._way(hsn), None
        if way is None:
            ways = self.sets[hsn % len(self.sets)]
            way = next((w for w in ways if not w["valid"]), None)
            if way is None:
                way = min(ways, key=lambda w: w["last_access"])
                evicted = (way["tag"], way["dsn"])
            way.update(tag=hsn, valid=True)
        way["dsn"] = dsn
        self._stamp(way)
        return evicted

    def invalidate(self, hsn: int) -> bool:
        way = self._way(hsn)
        if way is None:
            return False
        way["valid"] = False
        self.stats.invalidations += 1
        return True

    def _valid(self) -> list[dict]:
        """Valid ways, set by set, least recently used first."""
        return [way for ways in self.sets
                for way in sorted(ways, key=lambda w: w["last_access"])
                if way["valid"]]

    def hsns(self) -> list[int]:
        return [way["tag"] for way in self._valid()]

    def items(self) -> list[tuple[int, int]]:
        return [(way["tag"], way["dsn"]) for way in self._valid()]

    def __contains__(self, hsn: int) -> bool:
        return self._way(hsn) is not None

    def __len__(self) -> int:
        return len(self._valid())
