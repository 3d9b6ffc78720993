"""DTL translation tables: the three-level miss path plus reverse mapping.

The miss path (Figure 4) is:

1. **Host base address table** (on-chip SRAM) — host ID -> base of that
   host's AU table.
2. **AU table** (on-chip SRAM, one per host) — AU ID -> base address of the
   AU's slice of the segment mapping table.
3. **Segment mapping table** (in reserved DRAM) — AU offset -> DSN.

A **reverse mapping table** (DSN -> HSN, also in reserved DRAM) supports
mapping updates after data migration (Section 4.2).

Layout note (structure-of-arrays): the whole forward table is **one flat
preallocated int64 array** indexed directly by the packed HSN — exactly
how the hardware table is a flat region of reserved DRAM.  One AU's
slice of it is ``segments_per_au`` consecutive entries, so
the three-level walk collapses to a bounds check plus a single gather:
``dsns = forward[hsns]``.  An ``UNMAPPED`` sentinel marks both
never-allocated and unmapped entries; a per-AU allocation bitmap keeps
"AU not allocated" and "segment not mapped" distinguishable for error
reporting and is the only record of which AUs exist.  The reverse table
stays an ordinary dict: it is not on the access hot path and callers
(tests included) may probe arbitrary DSN keys outside the device range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.addressing import HostAddressLayout
from repro.errors import AddressError, AllocationError, TranslationError

UNMAPPED = -1


@dataclass
class WalkResult:
    """Outcome of a full table walk for one HSN."""

    dsn: int
    sram_accesses: int
    dram_accesses: int


class TranslationTables:
    """All DTL mapping state for one device.

    This class is purely functional bookkeeping — latency and energy of
    table accesses are accounted by the callers
    (:class:`repro.core.translation.TranslationEngine`).
    """

    def __init__(self, layout: HostAddressLayout):
        self.layout = layout
        # Flat forward table over the whole packed-HSN space.  Size is
        # max_hosts * max_aus_per_host * segments_per_au entries, i.e. at
        # most max_hosts * total_segments — a few MiB even at device
        # scale, and one gather resolves any HSN batch.
        self._forward = np.full(1 << layout.hsn_bits, UNMAPPED,
                                dtype=np.int64)
        # Allocation bitmap, [host_id, au_id]: the one record of which
        # AUs exist, and what tells "AU not allocated" from "segment not
        # mapped" on the error paths.
        self._au_allocated = np.zeros(
            (layout.max_hosts, layout.max_aus_per_host), dtype=bool)
        # DSN -> HSN reverse map.
        self._reverse: dict[int, int] = {}

    def _require_au(self, host_id: int, au_id: int) -> None:
        """Raise ``TranslationError`` unless the AU is allocated (an ID
        outside the layout names an AU that cannot be)."""
        hosts, aus_per_host = self._au_allocated.shape
        if not (0 <= host_id < hosts and 0 <= au_id < aus_per_host
                and self._au_allocated[host_id, au_id]):
            raise TranslationError(
                f"AU {au_id} of host {host_id} is not allocated")

    def _au_slice(self, host_id: int, au_id: int) -> np.ndarray:
        """View of one AU's ``segments_per_au`` forward-table entries."""
        base = self.layout.pack_hsn(host_id, au_id, 0)
        return self._forward[base:base + self.layout.segments_per_au]

    # -- AU lifecycle ---------------------------------------------------------

    def register_host(self, host_id: int) -> None:
        """Check that ``host_id`` names a host the tables can serve."""
        if not 0 <= host_id < self.layout.max_hosts:
            raise AddressError(f"host_id {host_id} out of range")

    def allocate_au(self, host_id: int, au_id: int) -> None:
        """Create the (all-unmapped) mapping slice of a newly allocated AU."""
        self.register_host(host_id)
        if not 0 <= au_id < self.layout.max_aus_per_host:
            raise AddressError(f"au_id {au_id} out of range")
        if self._au_allocated[host_id, au_id]:
            raise AllocationError(
                f"AU {au_id} of host {host_id} already allocated")
        self._au_slice(host_id, au_id).fill(UNMAPPED)
        self._au_allocated[host_id, au_id] = True

    def free_au(self, host_id: int, au_id: int) -> list[int]:
        """Tear down an AU; returns the DSNs of its mapped segments."""
        self._require_au(host_id, au_id)
        au_slice = self._au_slice(host_id, au_id)
        dsns = au_slice[au_slice != UNMAPPED].tolist()
        au_slice.fill(UNMAPPED)
        for dsn in dsns:
            self._reverse.pop(dsn, None)
        self._au_allocated[host_id, au_id] = False
        return dsns

    def au_ids(self, host_id: int) -> list[int]:
        """AU IDs currently allocated for ``host_id``."""
        if not 0 <= host_id < len(self._au_allocated):
            return []
        return np.flatnonzero(self._au_allocated[host_id]).tolist()

    # -- mapping --------------------------------------------------------------

    def map_segment(self, hsn: int, dsn: int) -> None:
        """Install the HSN -> DSN mapping (and its reverse)."""
        host_id, au_id, _ = self.layout.unpack_hsn(hsn)
        self._require_au(host_id, au_id)
        if self._forward[hsn] != UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is already mapped")
        if dsn in self._reverse:
            raise TranslationError(f"DSN {dsn:#x} is already in use")
        self._forward[hsn] = dsn
        self._reverse[dsn] = hsn

    def map_au_segments(self, host_id: int, au_id: int,
                        dsns: np.ndarray) -> np.ndarray:
        """Install one AU's whole mapping slice in a single scatter.

        Equivalent to calling :meth:`map_segment` for every
        ``(au_offset, dsn)`` pair in order, with the same validation
        (already-mapped offsets and in-use DSNs are rejected before any
        state changes).  Returns the packed HSNs of the mapped segments.
        """
        self._require_au(host_id, au_id)
        dsns = np.asarray(dsns, dtype=np.int64)
        au_offsets = np.arange(len(dsns), dtype=np.int64)
        hsns = self.layout.pack_hsn_batch(host_id,
                                          np.full(len(dsns), au_id,
                                                  dtype=np.int64),
                                          au_offsets)
        if (self._forward[hsns] != UNMAPPED).any():
            raise TranslationError(
                f"AU {au_id} of host {host_id} has mapped segments")
        dsn_list = dsns.tolist()
        if len(set(dsn_list)) != len(dsn_list) \
                or not self._reverse.keys().isdisjoint(dsn_list):
            raise TranslationError("DSN already in use in batch mapping")
        self._forward[hsns] = dsns
        self._reverse.update(zip(dsn_list, hsns.tolist()))
        return hsns

    def remap_segment(self, hsn: int, new_dsn: int) -> int:
        """Point ``hsn`` at ``new_dsn`` after migration; returns the old DSN."""
        host_id, au_id, _ = self.layout.unpack_hsn(hsn)
        self._require_au(host_id, au_id)
        old_dsn = int(self._forward[hsn])
        if old_dsn == UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is not mapped")
        if new_dsn in self._reverse:
            raise TranslationError(f"DSN {new_dsn:#x} is already in use")
        self._forward[hsn] = new_dsn
        del self._reverse[old_dsn]
        self._reverse[new_dsn] = hsn
        return old_dsn

    def remap_segments(self, hsns: list[int],
                       new_dsns: list[int]) -> list[int]:
        """:meth:`remap_segment` over paired lists; returns the old DSNs.

        A batch of distinct mapped HSNs moving to distinct DSNs nobody
        uses — every migration drain — is one gather, one scatter and
        one pass over the reverse map.  Anything else (an unmapped or
        repeated HSN, a target in use or named twice, a chain where one
        pair's target is an earlier pair's source) goes pair by pair
        through the scalar method, which raises its own diagnostic for
        the first bad pair with the earlier pairs applied.
        """
        if len(hsns) != len(new_dsns):
            raise ValueError(
                f"{len(hsns)} HSNs paired with {len(new_dsns)} DSNs")
        if not hsns:
            return []
        clean = (len(set(hsns)) == len(hsns)
                 and len(set(new_dsns)) == len(new_dsns)
                 and self._reverse.keys().isdisjoint(new_dsns)
                 and 0 <= min(hsns) and max(hsns) < len(self._forward))
        if clean:
            index = np.asarray(hsns, dtype=np.int64)
            old_dsns = self._forward[index].tolist()
            clean = UNMAPPED not in old_dsns
        if not clean:
            return [self.remap_segment(hsn, new_dsn)
                    for hsn, new_dsn in zip(hsns, new_dsns)]
        self._forward[index] = new_dsns
        for old_dsn in old_dsns:
            del self._reverse[old_dsn]
        self._reverse.update(zip(new_dsns, hsns))
        return old_dsns

    def swap_segments(self, hsn_a: int, hsn_b: int) -> None:
        """Exchange the DSNs of two mapped HSNs (hot/cold swap)."""
        dsn_a = self.walk(hsn_a).dsn
        dsn_b = self.walk(hsn_b).dsn
        self._forward[hsn_a] = dsn_b
        self._forward[hsn_b] = dsn_a
        self._reverse[dsn_a] = hsn_b
        self._reverse[dsn_b] = hsn_a

    def unmap_segment(self, hsn: int) -> int:
        """Remove the mapping for ``hsn``; returns the freed DSN."""
        host_id, au_id, _ = self.layout.unpack_hsn(hsn)
        self._require_au(host_id, au_id)
        dsn = int(self._forward[hsn])
        if dsn == UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is not mapped")
        self._forward[hsn] = UNMAPPED
        del self._reverse[dsn]
        return dsn

    # -- lookups --------------------------------------------------------------

    def walk(self, hsn: int) -> WalkResult:
        """Full three-level walk: 2 SRAM accesses + 1 DRAM access.

        Raises:
            TranslationError: if the HSN has no mapping.
        """
        if 0 <= hsn < len(self._forward):
            dsn = int(self._forward[hsn])
            if dsn != UNMAPPED:
                return WalkResult(dsn=dsn, sram_accesses=2, dram_accesses=1)
        # Error path: reproduce the level-by-level diagnostics.
        host_id, au_id, _ = self.layout.unpack_hsn(hsn)
        self._require_au(host_id, au_id)
        raise TranslationError(f"HSN {hsn:#x} is not mapped")

    def walk_batch(self, hsns: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`walk`: one DSN per input HSN.

        The flat forward table turns the whole batch into a bounds check
        plus one gather, whatever mix of hosts and AUs it spans.

        Raises:
            TranslationError: if any HSN has no mapping.
        """
        hsns = np.asarray(hsns, dtype=np.int64)
        if not len(hsns):
            return np.empty(0, dtype=np.int64)
        if not (0 <= int(hsns.min())
                and int(hsns.max()) < (1 << self.layout.hsn_bits)):
            raise AddressError("HSN out of range in batch")
        dsns = self._forward[hsns]
        unmapped = dsns == UNMAPPED
        if unmapped.any():
            # Raise with the scalar walk's exact diagnostic for the first
            # failing HSN in input order.
            self.walk(int(hsns[np.argmax(unmapped)]))
        return dsns

    def try_walk(self, hsn: int) -> int | None:
        """Like :meth:`walk` but returns ``None`` for unmapped HSNs."""
        try:
            return self.walk(hsn).dsn
        except TranslationError:
            return None

    def hsn_of_dsn(self, dsn: int) -> int:
        """Reverse lookup: HSN mapped to ``dsn``.

        Raises:
            TranslationError: if the DSN holds no live segment.
        """
        try:
            return self._reverse[dsn]
        except KeyError:
            raise TranslationError(f"DSN {dsn:#x} holds no segment") from None

    def hsns_of_dsns(self, dsns: list[int]) -> list[int]:
        """:meth:`hsn_of_dsn` for every element of ``dsns``."""
        try:
            return [self._reverse[dsn] for dsn in dsns]
        except KeyError as missing:
            raise TranslationError(
                f"DSN {missing.args[0]:#x} holds no segment") from None

    def is_dsn_live(self, dsn: int) -> bool:
        """True if ``dsn`` currently backs some HSN."""
        return dsn in self._reverse

    def live_dsns(self) -> list[int]:
        """All DSNs currently backing segments."""
        return sorted(self._reverse)

    @property
    def mapped_segment_count(self) -> int:
        """Number of live HSN -> DSN mappings."""
        return len(self._reverse)


__all__ = [
    "UNMAPPED",
    "WalkResult",
    "TranslationTables",
]
