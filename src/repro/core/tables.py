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
reporting and is the only record of which AUs exist.

The reverse table is the same kind of object: one flat int64 array
indexed by DSN, one entry per device segment, ``UNMAPPED`` where the
segment backs nothing; a counter holds the number of live entries.
Tearing down or installing an AU, remapping a drained migration queue
and resolving a victim rank's HSNs are each one gather or one scatter.
A *query* for a DSN the device does not have answers as for any other
dead segment (:meth:`TranslationTables.is_dsn_live` False,
:meth:`TranslationTables.hsn_of_dsn` raising ``TranslationError("DSN
0x... holds no segment")``); *mapping* one is an ``AddressError``.

Bulk methods take segment numbers as a list or an int64 array and return
int64 arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.addressing import (DeviceAddressLayout, HostAddressLayout,
                                   StructureSize, all_distinct)
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
        # Flat forward table over the whole packed-HSN space: max_hosts *
        # max_aus_per_host * segments_per_au entries, so one gather
        # resolves any HSN batch.  It holds each DSN inverted (``~dsn``),
        # so zeroed pages read UNMAPPED and only AUs in use take memory.
        self._forward = np.zeros(1 << layout.hsn_bits, dtype=np.int64)
        # Allocation bitmap, [host_id, au_id]: the one record of which
        # AUs exist, and what tells "AU not allocated" from "segment not
        # mapped" on the error paths.
        self._au_live = np.zeros(
            (layout.max_hosts, layout.max_aus_per_host), dtype=bool)
        # Reverse table, DSN -> HSN: one entry per device segment.
        self._reverse_table = np.full(layout.geometry.total_segments,
                                      UNMAPPED, dtype=np.int64)
        self._mapped = 0  # live entries of the reverse table

    def __getstate__(self) -> dict:
        # Checkpoints keep plain DSNs, UNMAPPED where nothing is mapped.
        return {**self.__dict__, "_forward": ~self._forward}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _forward=~state["_forward"])

    def table5_rows(self) -> dict[str, StructureSize]:
        """The Table 5 rows these tables are.  The paper's segment
        mapping table holds one ``DSN + valid`` entry per *device*
        segment; the flat forward table reserves that many per host
        (any one host may own the whole device), of which at most one
        device's worth is ever mapped."""
        layout = self.layout
        dsn_bits = DeviceAddressLayout(layout.geometry).dsn_bits
        return {
            "segment_mapping_table": StructureSize(
                len(self._forward) // layout.max_hosts, dsn_bits + 1),
            "reverse_mapping_table": StructureSize(
                len(self._reverse_table), layout.hsn_bits + 1),
        }

    def _require_au(self, host_id: int, au_id: int) -> None:
        """Raise ``TranslationError`` unless the AU is allocated (an ID
        outside the layout names an AU that cannot be)."""
        hosts, aus_per_host = self._au_live.shape
        if not (0 <= host_id < hosts and 0 <= au_id < aus_per_host
                and self._au_live[host_id, au_id]):
            raise TranslationError(
                f"AU {au_id} of host {host_id} is not allocated")

    def _require_unused(self, dsn: int) -> None:
        """Raise unless ``dsn`` is a device segment backing nothing."""
        if not 0 <= dsn < len(self._reverse_table):
            raise AddressError(f"DSN {dsn:#x} out of range")
        if self._reverse_table.item(dsn) != UNMAPPED:
            raise TranslationError(f"DSN {dsn:#x} is already in use")

    # -- AU lifecycle ---------------------------------------------------------

    def register_host(self, host_id: int) -> None:
        """Check that ``host_id`` names a host the tables can serve."""
        if not 0 <= host_id < self.layout.max_hosts:
            raise AddressError(f"host_id {host_id} out of range")

    def allocate_au(self, host_id: int, au_ids: Sequence[int]) -> None:
        """Allocate AUs, each with an all-unmapped slice (:meth:`free_au`
        leaves it so).  An AU ID out of range, already allocated or
        named twice raises, before anything changes."""
        for au_id in au_ids:
            self.layout.pack_hsn(host_id, au_id, 0)  # range-checks both IDs
            if self._au_live[host_id, au_id]:
                raise AllocationError(
                    f"AU {au_id} of host {host_id} already allocated")
        if len(set(au_ids)) < len(au_ids):
            raise AllocationError(
                f"AU named twice in {list(au_ids)} of host {host_id}")
        self._au_live[host_id, np.asarray(au_ids, dtype=np.int64)] = True

    def free_au(self, host_id: int, au_ids: Sequence[int]) -> np.ndarray:
        """Tear down AUs; returns the DSNs of their mapped segments, AU
        by AU in ``au_ids`` order, each AU's in offset order."""
        hsns = self.au_hsns(host_id, au_ids)
        dsns = ~self._forward[hsns]
        dsns = dsns[dsns != UNMAPPED]
        self._forward[hsns] = ~UNMAPPED
        self._reverse_table[dsns] = UNMAPPED
        self._mapped -= len(dsns)
        self._au_live[host_id, np.asarray(au_ids, dtype=np.int64)] = False
        return dsns

    def au_hsns(self, host_id: int, au_ids: Sequence[int]) -> np.ndarray:
        """The HSNs of the slices of ``au_ids``, AU by AU, each in offset
        order, once each names an allocated AU and none repeats."""
        for au_id in au_ids:
            self._require_au(host_id, au_id)
        if len(set(au_ids)) < len(au_ids):
            raise TranslationError(
                f"AU named twice in {list(au_ids)} of host {host_id}")
        segments = self.layout.segments_per_au
        return (self.layout.pack_hsn(host_id, 0, 0) + np.arange(segments)
                + np.asarray(au_ids, dtype=np.int64)[:, None] * segments
                ).ravel()

    def au_ids(self, host_id: int) -> list[int]:
        """AU IDs currently allocated for ``host_id``."""
        if not 0 <= host_id < len(self._au_live):
            return []
        return np.flatnonzero(self._au_live[host_id]).tolist()

    # -- mapping --------------------------------------------------------------

    def map_segment(self, hsn: int, dsn: int) -> None:
        """Install the HSN -> DSN mapping (and its reverse)."""
        host_id, au_id, _ = self.layout.unpack_hsn(hsn)
        self._require_au(host_id, au_id)
        if ~self._forward[hsn] != UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is already mapped")
        self._require_unused(dsn)
        self._forward[hsn] = ~dsn
        self._reverse_table[dsn] = hsn
        self._mapped += 1

    def map_au_segments(self, host_id: int, au_ids: Sequence[int],
                        dsns: np.ndarray) -> np.ndarray:
        """Install the mapping slices of AUs in a single scatter: the
        first ``segments_per_au`` DSNs back ``au_ids[0]``, the next
        ``au_ids[1]``, and so on.

        Equivalent to calling :meth:`map_segment` for every
        ``(hsn, dsn)`` pair in order, with the same validation
        (already-mapped offsets and in-use DSNs are rejected before any
        state changes).  Returns the packed HSNs of the mapped segments.
        """
        hsns = self.au_hsns(host_id, au_ids)
        dsns = np.asarray(dsns, dtype=np.int64)
        if len(dsns) > len(hsns):
            raise AddressError("au_offset out of range in batch")
        hsns = hsns[:len(dsns)]
        if (~self._forward[hsns] != UNMAPPED).any():
            raise TranslationError(
                f"AU in {list(au_ids)} of host {host_id} has mapped segments")
        if len(dsns) and not (0 <= int(dsns.min()) and int(dsns.max())
                              < len(self._reverse_table)):
            raise AddressError("DSN out of range in batch")
        reverse = self._reverse_table
        if (reverse[dsns] != UNMAPPED).any():
            raise TranslationError("DSN already in use in batch mapping")
        # The HSNs are distinct, so a DSN named twice keeps only one of
        # its HSNs: reading the scatter back finds it without a sort.
        reverse[dsns] = hsns
        if (reverse[dsns] != hsns).any():
            reverse[dsns] = UNMAPPED
            raise TranslationError("DSN already in use in batch mapping")
        self._forward[hsns] = ~dsns
        self._mapped += len(dsns)
        return hsns

    def remap_segment(self, hsn: int, new_dsn: int) -> int:
        """Point ``hsn`` at ``new_dsn`` after migration; returns the old DSN."""
        host_id, au_id, _ = self.layout.unpack_hsn(hsn)
        self._require_au(host_id, au_id)
        old_dsn = ~int(self._forward[hsn])
        if old_dsn == UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is not mapped")
        self._require_unused(new_dsn)
        self._forward[hsn] = ~new_dsn
        self._reverse_table[old_dsn] = UNMAPPED
        self._reverse_table[new_dsn] = hsn
        return old_dsn

    def remap_segments(self, hsns: list[int] | np.ndarray,
                       new_dsns: list[int] | np.ndarray) -> np.ndarray:
        """:meth:`remap_segment` over paired lists; returns the old DSNs.

        A batch of distinct mapped HSNs moving to distinct DSNs nobody
        uses — every migration drain — is one gather and three
        scatters.  Anything else (an unmapped or repeated HSN, a target
        in use, out of range or named twice, a chain where one pair's
        target is an earlier pair's source) goes pair by pair through
        the scalar method, which raises its own diagnostic for the first
        bad pair with the earlier pairs applied.
        """
        if len(hsns) != len(new_dsns):
            raise ValueError(
                f"{len(hsns)} HSNs paired with {len(new_dsns)} DSNs")
        hsns = np.asarray(hsns, dtype=np.int64)
        new_dsns = np.asarray(new_dsns, dtype=np.int64)
        if len(hsns) > 1:
            reverse = self._reverse_table
            clean = (0 <= int(hsns.min())
                     and int(hsns.max()) < len(self._forward)
                     and 0 <= int(new_dsns.min())
                     and int(new_dsns.max()) < len(reverse)
                     and not (reverse[new_dsns] != UNMAPPED).any()
                     and all_distinct(hsns) and all_distinct(new_dsns))
            if clean:
                old_dsns = ~self._forward[hsns]
                if not (old_dsns == UNMAPPED).any():
                    self._forward[hsns] = ~new_dsns
                    reverse[old_dsns] = UNMAPPED
                    reverse[new_dsns] = hsns
                    return old_dsns
        return np.array([self.remap_segment(hsn, new_dsn) for hsn, new_dsn
                         in zip(hsns.tolist(), new_dsns.tolist())],
                        dtype=np.int64)

    def swap_segments(self, hsn_a: int, hsn_b: int) -> None:
        """Exchange the DSNs of two mapped HSNs (hot/cold swap)."""
        dsn_a = self.walk(hsn_a).dsn
        dsn_b = self.walk(hsn_b).dsn
        self._forward[hsn_a] = ~dsn_b
        self._forward[hsn_b] = ~dsn_a
        self._reverse_table[dsn_a] = hsn_b
        self._reverse_table[dsn_b] = hsn_a

    def unmap_segment(self, hsn: int) -> int:
        """Remove the mapping for ``hsn``; returns the freed DSN."""
        host_id, au_id, _ = self.layout.unpack_hsn(hsn)
        self._require_au(host_id, au_id)
        dsn = ~int(self._forward[hsn])
        if dsn == UNMAPPED:
            raise TranslationError(f"HSN {hsn:#x} is not mapped")
        self._forward[hsn] = ~UNMAPPED
        self._reverse_table[dsn] = UNMAPPED
        self._mapped -= 1
        return dsn

    # -- lookups --------------------------------------------------------------

    def walk(self, hsn: int) -> WalkResult:
        """Full three-level walk: 2 SRAM accesses + 1 DRAM access.

        Raises:
            TranslationError: if the HSN has no mapping.
        """
        if 0 <= hsn < len(self._forward):
            dsn = ~int(self._forward[hsn])
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
        dsns = ~self._forward[hsns]
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
        if 0 <= dsn < len(self._reverse_table):
            hsn = self._reverse_table.item(dsn)
            if hsn != UNMAPPED:
                return hsn
        raise TranslationError(f"DSN {dsn:#x} holds no segment")

    def hsns_of_dsns(self, dsns: list[int] | np.ndarray) -> np.ndarray:
        """:meth:`hsn_of_dsn` for every element of ``dsns``: one gather."""
        dsns = np.asarray(dsns, dtype=np.int64)
        if not len(dsns) or (0 <= int(dsns.min()) and int(dsns.max())
                             < len(self._reverse_table)):
            hsns = self._reverse_table[dsns]
            if not (hsns == UNMAPPED).any():
                return hsns
        # Name the first dead DSN in input order.
        return np.array([self.hsn_of_dsn(dsn) for dsn in dsns.tolist()],
                        dtype=np.int64)

    def try_walk_batch(self, hsns: np.ndarray) -> np.ndarray:
        """:meth:`try_walk` over ``hsns`` in one gather, ``UNMAPPED``
        where it gives ``None``."""
        hsns = np.asarray(hsns, dtype=np.int64)
        inside = (hsns >= 0) & (hsns < len(self._forward))
        dsns = np.full(len(hsns), UNMAPPED, dtype=np.int64)
        dsns[inside] = ~self._forward[hsns[inside]]
        for hsn in hsns[~inside].tolist():
            self.try_walk(hsn)  # out of range: raises as the walk does
        return dsns

    def mapped_mask(self) -> np.ndarray:
        """One flag per DSN: True where it backs some HSN."""
        return self._reverse_table != UNMAPPED

    def is_dsn_live(self, dsn: int) -> bool:
        """True if ``dsn`` currently backs some HSN."""
        return (0 <= dsn < len(self._reverse_table)
                and self._reverse_table.item(dsn) != UNMAPPED)

    def live_dsns(self) -> list[int]:
        """All DSNs currently backing segments (ascending)."""
        return np.flatnonzero(self._reverse_table != UNMAPPED).tolist()

    @property
    def mapped_segment_count(self) -> int:
        """Number of live HSN -> DSN mappings."""
        return self._mapped


__all__ = [
    "UNMAPPED",
    "WalkResult",
    "TranslationTables",
]
