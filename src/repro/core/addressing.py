"""Address formats and codecs for the DTL.

Two address spaces are involved (Figures 4 and 6 of the paper):

* **HPA** (host physical address).  The high bits above the segment offset
  form the *host segment number* (HSN), which decomposes into
  ``host ID | AU ID | AU offset``.  An *allocation unit* (AU) is the minimum
  per-VM memory allocation (2 GiB by default — the smallest vMemory size of
  the top-three cloud vendors).
* **DPA** (DRAM device physical address).  From least- to most-significant:
  ``segment offset | channel | segment index | rank``.  Channel bits sit
  directly above the offset so consecutive segments interleave across
  channels, while rank bits are the most significant so that entire ranks
  can idle (Section 3.3).

The *DRAM segment number* (DSN) is the DPA stripped of its segment offset;
it uniquely names one 2 MiB segment in the device.

The two layout classes are the only owners of these formats.  Field
widths, shifts and masks are derived once per instance (cached outside
the dataclass fields, so equality, hashing and old pickles are
unaffected); other modules decode through ``rank_of_dsn`` /
``channel_of_dsn`` (pure bit operations, valid on int64 arrays too) and
the batch codecs, never through shifts of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.errors import AddressError, ConfigurationError
from repro.units import GIB, is_power_of_two, log2_int

DEFAULT_AU_BYTES = 2 * GIB
DEFAULT_MAX_HOSTS = 16  # Table 5 sizes structures "to support 16 hosts".
# The ufunc itself: ``ndarray.max`` goes through a Python-level wrapper.
_MAX = np.maximum.reduce


@dataclass(frozen=True)
class HostAddressLayout:
    """Bit layout of the host physical address (Figure 4).

    Attributes:
        geometry: Device geometry (supplies the segment size).
        au_bytes: Allocation-unit size (2 GiB by default).
        max_hosts: Number of hosts sharing the device (host-ID width).
    """

    geometry: DramGeometry
    au_bytes: int = DEFAULT_AU_BYTES
    max_hosts: int = DEFAULT_MAX_HOSTS

    def __post_init__(self) -> None:
        if not is_power_of_two(self.au_bytes):
            raise ConfigurationError("au_bytes must be a power of two")
        if not is_power_of_two(self.max_hosts):
            raise ConfigurationError("max_hosts must be a power of two")
        if self.au_bytes % self.geometry.segment_bytes:
            raise ConfigurationError(
                "AU size must be a multiple of the segment size")

    # -- widths ---------------------------------------------------------------

    @property
    def segment_offset_bits(self) -> int:
        """Bits addressing a byte within a segment."""
        return self.geometry.segment_offset_bits

    @cached_property
    def au_offset_bits(self) -> int:
        """Bits selecting a segment within an AU."""
        return log2_int(self.segments_per_au)

    @cached_property
    def segments_per_au(self) -> int:
        """Number of segments per allocation unit."""
        return self.au_bytes // self.geometry.segment_bytes

    @cached_property
    def max_aus_per_host(self) -> int:
        """AUs addressable per host if the device were owned by one host."""
        return max(1, self.geometry.total_bytes // self.au_bytes)

    @cached_property
    def au_id_bits(self) -> int:
        """Bits selecting an AU within a host's address space."""
        return log2_int(self.max_aus_per_host)

    @cached_property
    def host_id_bits(self) -> int:
        """Bits selecting the host."""
        return log2_int(self.max_hosts)

    @cached_property
    def hsn_bits(self) -> int:
        """Total width of a host segment number."""
        return self.host_id_bits + self.au_id_bits + self.au_offset_bits

    # -- codecs ---------------------------------------------------------------

    def hsn_of_hpa(self, hpa: int) -> int:
        """Host segment number containing ``hpa``."""
        if hpa < 0:
            raise AddressError(f"negative HPA {hpa:#x}")
        return hpa >> self.segment_offset_bits

    def offset_of_hpa(self, hpa: int) -> int:
        """Byte offset of ``hpa`` within its segment."""
        if hpa < 0:
            raise AddressError(f"negative HPA {hpa:#x}")
        return hpa & (self.geometry.segment_bytes - 1)

    def pack_hsn(self, host_id: int, au_id: int, au_offset: int) -> int:
        """Assemble an HSN from its fields."""
        if not 0 <= host_id < self.max_hosts:
            raise AddressError(f"host_id {host_id} out of range")
        if not 0 <= au_id < self.max_aus_per_host:
            raise AddressError(f"au_id {au_id} out of range")
        if not 0 <= au_offset < self.segments_per_au:
            raise AddressError(f"au_offset {au_offset} out of range")
        return ((host_id << (self.au_id_bits + self.au_offset_bits))
                | (au_id << self.au_offset_bits)
                | au_offset)

    def unpack_hsn(self, hsn: int) -> tuple[int, int, int]:
        """Split an HSN into ``(host_id, au_id, au_offset)``."""
        if not 0 <= hsn < (1 << self.hsn_bits):
            raise AddressError(f"HSN {hsn:#x} out of range")
        au_offset = hsn & (self.segments_per_au - 1)
        au_id = (hsn >> self.au_offset_bits) & (self.max_aus_per_host - 1)
        host_id = hsn >> (self.au_offset_bits + self.au_id_bits)
        return host_id, au_id, au_offset

    def hpa_of(self, hsn: int, offset: int = 0) -> int:
        """Reconstruct an HPA from HSN and intra-segment offset."""
        if not 0 <= offset < self.geometry.segment_bytes:
            raise AddressError(f"offset {offset} out of range")
        return (hsn << self.segment_offset_bits) | offset

    # -- batch codecs ---------------------------------------------------------

    def split_hpa_batch(self, hpas: np.ndarray,
                        host_id: int | np.ndarray | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`hsn_of_hpa` and :meth:`offset_of_hpa` over
        an int64 HPA array: ``(hsns, offsets)``, the input validated and
        read once.

        With ``host_id`` (one, or one per element) the HSNs are packed
        with it as :meth:`pack_hsn` would.  One reduction of the HPAs
        read as unsigned refuses a negative HPA and an AU ID out of
        range; AU and byte offsets are in range by construction.
        """
        hpas = np.asarray(hpas, dtype=np.int64)
        top = int(_MAX(hpas.view(np.uint64))) if len(hpas) else 0
        if top >> 63:
            raise AddressError("negative HPA in batch")
        bits = self.geometry.segment_offset_bits
        hsns, offsets = hpas >> bits, hpas & (self.geometry.segment_bytes - 1)
        if host_id is None:
            return hsns, offsets
        if type(host_id) is np.ndarray:  # a column, one host per element
            host_id = host_id.astype(np.int64, copy=False)
            if len(host_id) and int(_MAX(host_id.view(np.uint64))) \
                    >= self.max_hosts:
                raise AddressError("host_id out of range in batch")
        elif not 0 <= host_id < self.max_hosts:
            raise AddressError(f"host_id {host_id} out of range")
        if top >> (bits + self.au_offset_bits) >= self.max_aus_per_host:
            raise AddressError("au_id out of range in batch")
        return (hsns | (host_id << (self.au_id_bits + self.au_offset_bits)),
                offsets)

    def pack_hsn_batch(self, host_id: int | np.ndarray, au_ids: np.ndarray,
                       au_offsets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`pack_hsn` over paired arrays, for one host
        or with a host ID per element."""
        if type(host_id) is np.ndarray:  # a column, one host per element
            if len(host_id) and not (0 <= int(host_id.min())
                                     and int(host_id.max()) < self.max_hosts):
                raise AddressError("host_id out of range in batch")
        elif not 0 <= host_id < self.max_hosts:
            raise AddressError(f"host_id {host_id} out of range")
        au_ids = np.asarray(au_ids, dtype=np.int64)
        au_offsets = np.asarray(au_offsets, dtype=np.int64)
        if len(au_ids) and not (0 <= int(au_ids.min())
                                and int(au_ids.max()) < self.max_aus_per_host):
            raise AddressError("au_id out of range in batch")
        if len(au_offsets) and not (0 <= int(au_offsets.min())
                                    and int(au_offsets.max())
                                    < self.segments_per_au):
            raise AddressError("au_offset out of range in batch")
        return ((host_id << (self.au_id_bits + self.au_offset_bits))
                | (au_ids << self.au_offset_bits)
                | au_offsets)


@dataclass(frozen=True)
class StructureSize:
    """What a live structure declares against its Table 5 row: how many
    entries it holds and how wide the paper makes one."""

    entries: int
    paper_entry_bits: int

    @property
    def paper_bytes(self) -> int:
        """The row's size the way Table 5 counts it."""
        return self.entries * self.paper_entry_bits // 8


def all_distinct(numbers: np.ndarray) -> bool:
    """True when no segment number occurs twice in ``numbers``.

    Sort and compare neighbours: ``np.unique`` costs ten times as much
    on an AU's worth of DSNs (docs/PERF.md, "Control plane").
    """
    ordered = np.sort(numbers)
    return not (ordered[1:] == ordered[:-1]).any()


@dataclass(frozen=True)
class SegmentLocation:
    """Physical placement of one segment: ``(channel, rank, index)``."""

    channel: int
    rank: int
    index: int

    @property
    def rank_id(self) -> tuple[int, int]:
        """The ``(channel, rank)`` pair owning the segment."""
        return (self.channel, self.rank)


@dataclass(frozen=True)
class DeviceAddressLayout:
    """Bit layout of the DRAM device physical address (Figure 6)."""

    geometry: DramGeometry

    @cached_property
    def channel_mask(self) -> int:
        """Mask of the channel field (the low bits of a DSN)."""
        return self.geometry.channels - 1

    @cached_property
    def rank_shift(self) -> int:
        """Position of the rank field (the high bits of a DSN)."""
        return self.geometry.channel_bits + self.geometry.segment_index_bits

    @cached_property
    def rank_mask(self) -> int:
        """Mask of the rank field once shifted down."""
        return self.geometry.ranks_per_channel - 1

    @property
    def dsn_bits(self) -> int:
        """Total width of a DRAM segment number."""
        return self.rank_shift + self.geometry.rank_bits

    def pack_dsn(self, location: SegmentLocation) -> int:
        """Assemble a DSN from a segment location."""
        geo = self.geometry
        if not 0 <= location.channel < geo.channels:
            raise AddressError(f"channel {location.channel} out of range")
        if not 0 <= location.rank < geo.ranks_per_channel:
            raise AddressError(f"rank {location.rank} out of range")
        if not 0 <= location.index < geo.segments_per_rank:
            raise AddressError(f"segment index {location.index} out of range")
        return ((location.rank << self.rank_shift)
                | (location.index << geo.channel_bits)
                | location.channel)

    def unpack_dsn(self, dsn: int) -> SegmentLocation:
        """Split a DSN into its :class:`SegmentLocation`."""
        geo = self.geometry
        if not 0 <= dsn < geo.total_segments:
            raise AddressError(f"DSN {dsn:#x} out of range")
        return SegmentLocation(
            channel=dsn & self.channel_mask,
            rank=(dsn >> self.rank_shift) & self.rank_mask,
            index=(dsn >> geo.channel_bits) & (geo.segments_per_rank - 1))

    def dpa_of(self, dsn: int, offset: int = 0) -> int:
        """DPA of byte ``offset`` within segment ``dsn``."""
        if not 0 <= offset < self.geometry.segment_bytes:
            raise AddressError(f"offset {offset} out of range")
        return (dsn << self.geometry.segment_offset_bits) | offset

    def dsn_of_dpa(self, dpa: int) -> int:
        """DSN containing device physical address ``dpa``."""
        if not 0 <= dpa < self.geometry.total_bytes:
            raise AddressError(f"DPA {dpa:#x} out of range")
        return dpa >> self.geometry.segment_offset_bits

    def channel_of_dsn(self, dsn):
        """Channel owning segment ``dsn`` (an int, or an int64 array of
        DSNs decoded element-wise)."""
        return dsn & self.channel_mask

    def rank_of_dsn(self, dsn):
        """Rank index (within its channel) owning segment ``dsn`` (an
        int, or an int64 array of DSNs decoded element-wise).

        The shifted value is masked to ``rank_bits``: a well-formed DSN
        has nothing above the rank field, but callers that hand in wider
        packed values (DPAs shifted down, sentinel-tagged DSNs) must not
        see the stray high bits come back as a rank index.
        """
        return (dsn >> self.rank_shift) & self.rank_mask

    # -- batch codecs ---------------------------------------------------------

    def rank_dsns(self, channel: int, rank: int) -> np.ndarray:
        """Every DSN of rank ``rank`` on ``channel``, in segment-index
        order: bit-identical to packing each ``SegmentLocation(channel,
        rank, index)`` scalar-wise (consecutive segments of a rank sit
        ``channels`` apart)."""
        geo = self.geometry
        if not 0 <= channel < geo.channels:
            raise AddressError(f"channel {channel} out of range")
        if not 0 <= rank < geo.ranks_per_channel:
            raise AddressError(f"rank {rank} out of range")
        indices = np.arange(geo.segments_per_rank, dtype=np.int64)
        return (((rank << self.rank_shift) | (indices << geo.channel_bits))
                | channel)

    def unpack_dsn_batch(self, dsns: np.ndarray,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`unpack_dsn`: ``(channels, ranks, indices)``."""
        geo = self.geometry
        dsns = np.asarray(dsns, dtype=np.int64)
        # Read as unsigned, a negative DSN is out of range too.
        if len(dsns) and int(_MAX(dsns.view(np.uint64))) \
                >= geo.total_segments:
            raise AddressError("DSN out of range in batch")
        return (dsns & self.channel_mask,
                (dsns >> self.rank_shift) & self.rank_mask,
                (dsns >> geo.channel_bits) & (geo.segments_per_rank - 1))

    def dpa_of_batch(self, dsns: np.ndarray,
                     offsets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`dpa_of` over paired DSN/offset arrays."""
        dsns = np.asarray(dsns, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(offsets) and int(_MAX(offsets.view(np.uint64))) \
                >= self.geometry.segment_bytes:
            raise AddressError("offset out of range in batch")
        return (dsns << self.geometry.segment_offset_bits) | offsets


__all__ = [
    "DEFAULT_AU_BYTES",
    "DEFAULT_MAX_HOSTS",
    "HostAddressLayout",
    "DeviceAddressLayout",
    "SegmentLocation",
    "StructureSize",
    "all_distinct",
]
