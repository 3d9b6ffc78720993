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
how the hardware table is a flat region of reserved DRAM.  Per-AU
"slices" (:class:`AuMappingSlice`) are numpy views into that array, so
the three-level walk collapses to a bounds check plus a single gather:
``dsns = forward[hsns]``.  An ``UNMAPPED`` sentinel marks both
never-allocated and unmapped entries; a per-AU allocation bitmap keeps
"AU not allocated" and "segment not mapped" distinguishable for error
reporting.  The reverse table stays an ordinary dict: it is not on the
access hot path and callers (tests included) may probe arbitrary DSN
keys outside the device range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


class AuMappingSlice:
    """The segment mapping table slice for one allocated AU.

    Maps AU offsets (0 .. segments_per_au-1) to DSNs; ``UNMAPPED`` marks
    segments not yet backed by DRAM.  Backed by an int64 array — normally
    a view into :class:`TranslationTables`' flat forward table, so slice
    updates and whole-table gathers see the same storage — standalone
    construction with just a length keeps working for unit tests.
    """

    def __init__(self, au_id: int, segments_per_au: int,
                 backing: np.ndarray | None = None):
        self.au_id = au_id
        if backing is not None:
            self._dsns = backing
        else:
            self._dsns = np.full(segments_per_au, UNMAPPED, dtype=np.int64)

    def get(self, au_offset: int) -> int:
        """DSN for ``au_offset`` (may be :data:`UNMAPPED`)."""
        return int(self._dsns[au_offset])

    def set(self, au_offset: int, dsn: int) -> None:
        """Record that ``au_offset`` is backed by segment ``dsn``."""
        self._dsns[au_offset] = dsn

    def set_batch(self, au_offsets: np.ndarray, dsns: np.ndarray) -> None:
        """Scatter ``dsns`` into the slice at ``au_offsets``."""
        self._dsns[au_offsets] = dsns

    def get_batch(self, au_offsets: np.ndarray) -> np.ndarray:
        """Gather the DSNs at ``au_offsets`` (may contain UNMAPPED)."""
        return self._dsns[au_offsets]

    def clear(self, au_offset: int) -> int:
        """Unmap ``au_offset``; returns the previous DSN."""
        old = int(self._dsns[au_offset])
        self._dsns[au_offset] = UNMAPPED
        return old

    def clear_all(self) -> list[int]:
        """Unmap every offset; returns the previous DSNs in offset order."""
        dsns = self._dsns[self._dsns != UNMAPPED].tolist()
        self._dsns.fill(UNMAPPED)
        return dsns

    def __len__(self) -> int:
        return len(self._dsns)


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
        # Allocation bitmap indexed by the (host_id | au_id) prefix, so
        # batch walks can distinguish "AU not allocated" from "segment
        # not mapped" without touching the per-AU objects.
        self._au_allocated = np.zeros(
            layout.max_hosts * layout.max_aus_per_host, dtype=bool)
        # host_id -> {au_id -> AuMappingSlice} view objects (lifecycle /
        # introspection; the slices alias _forward).
        self._hosts: dict[int, dict[int, AuMappingSlice]] = {}
        # DSN -> HSN reverse map.
        self._reverse: dict[int, int] = {}

    # -- prefix helpers -------------------------------------------------------

    def _prefix(self, host_id: int, au_id: int) -> int:
        return (host_id << self.layout.au_id_bits) | au_id

    def _slice_base(self, host_id: int, au_id: int) -> int:
        return self._prefix(host_id, au_id) << self.layout.au_offset_bits

    def _make_slice(self, host_id: int, au_id: int) -> AuMappingSlice:
        """Build the view object aliasing ``_forward`` for one AU."""
        base = self._slice_base(host_id, au_id)
        segments = self.layout.segments_per_au
        return AuMappingSlice(au_id, segments,
                              backing=self._forward[base:base + segments])

    # -- serialisation --------------------------------------------------------

    def __getstate__(self):
        # The AuMappingSlice objects alias _forward; pickling them as-is
        # would materialise independent copies and silently break the
        # aliasing on load.  Serialise just the AU ids and rebuild the
        # views in __setstate__.
        state = self.__dict__.copy()
        state["_hosts"] = {host_id: sorted(aus)
                          for host_id, aus in self._hosts.items()}
        return state

    def __setstate__(self, state):
        host_aus = state.pop("_hosts")
        self.__dict__.update(state)
        self._hosts = {
            host_id: {au_id: self._make_slice(host_id, au_id)
                      for au_id in au_ids}
            for host_id, au_ids in host_aus.items()}

    # -- AU lifecycle ---------------------------------------------------------

    def register_host(self, host_id: int) -> None:
        """Create the AU table for ``host_id`` if not present."""
        if not 0 <= host_id < self.layout.max_hosts:
            raise AddressError(f"host_id {host_id} out of range")
        self._hosts.setdefault(host_id, {})

    def allocate_au(self, host_id: int, au_id: int) -> AuMappingSlice:
        """Create the mapping slice for a newly allocated AU."""
        self.register_host(host_id)
        aus = self._hosts[host_id]
        if au_id in aus:
            raise AllocationError(
                f"AU {au_id} of host {host_id} already allocated")
        if not 0 <= au_id < self.layout.max_aus_per_host:
            raise AddressError(f"au_id {au_id} out of range")
        au_slice = self._make_slice(host_id, au_id)
        au_slice._dsns[:] = UNMAPPED
        aus[au_id] = au_slice
        self._au_allocated[self._prefix(host_id, au_id)] = True
        return aus[au_id]

    def free_au(self, host_id: int, au_id: int) -> list[int]:
        """Tear down an AU; returns the DSNs of its mapped segments."""
        dsns = self._au_slice(host_id, au_id).clear_all()
        for dsn in dsns:
            self._reverse.pop(dsn, None)
        del self._hosts[host_id][au_id]
        self._au_allocated[self._prefix(host_id, au_id)] = False
        return dsns

    def au_ids(self, host_id: int) -> list[int]:
        """AU IDs currently allocated for ``host_id``."""
        return sorted(self._hosts.get(host_id, {}))

    def _au_slice(self, host_id: int, au_id: int) -> AuMappingSlice:
        try:
            return self._hosts[host_id][au_id]
        except KeyError:
            raise TranslationError(
                f"AU {au_id} of host {host_id} is not allocated") from None

    # -- mapping --------------------------------------------------------------

    def map_segment(self, hsn: int, dsn: int) -> None:
        """Install the HSN -> DSN mapping (and its reverse)."""
        host_id, au_id, au_offset = self.layout.unpack_hsn(hsn)
        au_slice = self._au_slice(host_id, au_id)
        if au_slice.get(au_offset) != UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is already mapped")
        if dsn in self._reverse:
            raise TranslationError(f"DSN {dsn:#x} is already in use")
        au_slice.set(au_offset, dsn)
        self._reverse[dsn] = hsn

    def map_au_segments(self, host_id: int, au_id: int,
                        dsns: np.ndarray) -> np.ndarray:
        """Install one AU's whole mapping slice in a single scatter.

        Equivalent to calling :meth:`map_segment` for every
        ``(au_offset, dsn)`` pair in order, with the same validation
        (already-mapped offsets and in-use DSNs are rejected before any
        state changes).  Returns the packed HSNs of the mapped segments.
        """
        au_slice = self._au_slice(host_id, au_id)
        dsns = np.asarray(dsns, dtype=np.int64)
        au_offsets = np.arange(len(dsns), dtype=np.int64)
        hsns = self.layout.pack_hsn_batch(host_id,
                                          np.full(len(dsns), au_id,
                                                  dtype=np.int64),
                                          au_offsets)
        if (au_slice.get_batch(au_offsets) != UNMAPPED).any():
            raise TranslationError(
                f"AU {au_id} of host {host_id} has mapped segments")
        dsn_list = dsns.tolist()
        if len(set(dsn_list)) != len(dsn_list) \
                or not self._reverse.keys().isdisjoint(dsn_list):
            raise TranslationError("DSN already in use in batch mapping")
        au_slice.set_batch(au_offsets, dsns)
        self._reverse.update(zip(dsn_list, hsns.tolist()))
        return hsns

    def remap_segment(self, hsn: int, new_dsn: int) -> int:
        """Point ``hsn`` at ``new_dsn`` after migration; returns the old DSN."""
        host_id, au_id, au_offset = self.layout.unpack_hsn(hsn)
        au_slice = self._au_slice(host_id, au_id)
        old_dsn = au_slice.get(au_offset)
        if old_dsn == UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is not mapped")
        if new_dsn in self._reverse:
            raise TranslationError(f"DSN {new_dsn:#x} is already in use")
        au_slice.set(au_offset, new_dsn)
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
        host_id, au_id, au_offset = self.layout.unpack_hsn(hsn)
        au_slice = self._au_slice(host_id, au_id)
        dsn = au_slice.clear(au_offset)
        if dsn == UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is not mapped")
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
        self._au_slice(host_id, au_id)
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
    "AuMappingSlice",
    "TranslationTables",
]
