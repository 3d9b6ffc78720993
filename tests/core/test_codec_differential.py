"""The batch datapath's address codec is the scalar codec, element-wise.

:meth:`DtlController.look_ahead` decodes a whole request in one pass per
side: ``split_hpa_batch`` with the hosts folded in (one reduction for
the negative-HPA and AU-ID checks), then ``unpack_dsn_batch`` and
``dpa_of_batch`` on the translated DSNs.  The property draws hosts,
HPAs and DSNs around every bound — negative, just past the last AU, far
past int64's half, a host ID out of range, one host or one per access —
and holds the batch against ``hsn_of_hpa`` / ``pack_hsn`` /
``unpack_dsn`` / ``dpa_of`` one element at a time: the same values where
no element is refused, and ``AddressError`` on exactly the batches that
hold an element the scalar codec refuses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import DeviceAddressLayout, HostAddressLayout
from repro.core.config import small_dtl_config
from repro.dram.geometry import DramGeometry
from repro.errors import AddressError
from repro.units import GIB

LAYOUTS = [
    HostAddressLayout(small_dtl_config().geometry,
                      au_bytes=small_dtl_config().au_bytes),
    HostAddressLayout(DramGeometry(), au_bytes=2 * GIB),
]
INT64 = np.iinfo(np.int64)


def around(low: int, high: int) -> st.SearchStrategy[int]:
    """Integers in ``[low, high)``, its edges and just past them, and
    anywhere in int64."""
    return st.one_of(st.integers(low, high - 1), st.integers(low - 3, low + 3),
                     st.integers(high - 3, high + 3),
                     st.integers(int(INT64.min), int(INT64.max)))


def scalar_host_codec(layout: HostAddressLayout, host_id: int,
                      hpa: int) -> tuple[int, int]:
    au_id, au_offset = divmod(layout.hsn_of_hpa(hpa), layout.segments_per_au)
    return (layout.pack_hsn(host_id, au_id, au_offset),
            layout.offset_of_hpa(hpa))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), column=st.booleans())
def test_host_side_matches_the_scalar_codec(data, n, column):
    layout = data.draw(st.sampled_from(LAYOUTS))
    hpas = data.draw(st.lists(
        around(0, layout.max_aus_per_host * layout.au_bytes),
        min_size=n, max_size=n))
    host = around(0, layout.max_hosts)
    hosts = (data.draw(st.lists(host, min_size=n, max_size=n)) if column
             else [data.draw(host)] * n)
    expected, refused = [], False
    for host_id, hpa in zip(hosts, hpas):
        try:
            expected.append(scalar_host_codec(layout, host_id, hpa))
        except AddressError:
            refused = True
    if any(hpa < 0 for hpa in hpas):
        with pytest.raises(AddressError, match="negative HPA"):
            layout.split_hpa_batch(np.array(hpas, dtype=np.int64))
    else:  # without a host the split refuses nothing else
        locals_, offsets = layout.split_hpa_batch(
            np.array(hpas, dtype=np.int64))
        assert list(zip(locals_.tolist(), offsets.tolist())) == [
            (layout.hsn_of_hpa(hpa), layout.offset_of_hpa(hpa))
            for hpa in hpas]
    batch_hosts = np.array(hosts, dtype=np.int64) if column else hosts[0]
    if refused:
        with pytest.raises(AddressError):
            layout.split_hpa_batch(np.array(hpas, dtype=np.int64),
                                   batch_hosts)
        return
    hsns, offsets = layout.split_hpa_batch(np.array(hpas, dtype=np.int64),
                                           batch_hosts)
    assert (hsns.dtype, offsets.dtype) == (np.int64, np.int64)
    assert list(zip(hsns.tolist(), offsets.tolist())) == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_device_side_matches_the_scalar_codec(data, n):
    layout = DeviceAddressLayout(data.draw(st.sampled_from(LAYOUTS)).geometry)
    geometry = layout.geometry
    dsns = data.draw(st.lists(around(0, geometry.total_segments),
                              min_size=n, max_size=n))
    # Byte offsets come from the host side's mask: always in range.
    offsets = data.draw(st.lists(st.integers(0, geometry.segment_bytes - 1),
                                 min_size=n, max_size=n))
    expected, refused = [], False
    for dsn, offset in zip(dsns, offsets):
        try:
            location = layout.unpack_dsn(dsn)
            expected.append((location.channel, location.rank,
                             layout.dpa_of(dsn, offset)))
        except AddressError:
            refused = True
    dsn_array = np.array(dsns, dtype=np.int64)
    if refused:
        with pytest.raises(AddressError):
            layout.unpack_dsn_batch(dsn_array)
        return
    channels, ranks, _ = layout.unpack_dsn_batch(dsn_array)
    dpas = layout.dpa_of_batch(dsn_array, np.array(offsets, dtype=np.int64))
    assert list(zip(channels.tolist(), ranks.tolist(),
                    dpas.tolist())) == expected


def test_an_empty_batch_is_refused_only_for_a_bad_host():
    layout = LAYOUTS[0]
    empty = np.empty(0, dtype=np.int64)
    for hosts in (0, empty):
        hsns, offsets = layout.split_hpa_batch(empty, hosts)
        assert len(hsns) == len(offsets) == 0
    with pytest.raises(AddressError, match="host_id 16 out of range"):
        layout.split_hpa_batch(empty, layout.max_hosts)
