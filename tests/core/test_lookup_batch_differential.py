"""``SegmentMappingCache.lookup_batch`` against the scalar loop it replaces.

The batch lookup promises the effects of :meth:`lookup` + :meth:`fill`
called once per access, in order, with each SMC corruption's ``drop()``
run right after its lookup.  It runs each chunk's distinct HSNs once,
in first-occurrence order, and ends a chunk at L1 capacity and before a
fill whose L2 victim is a distinct the chunk already ran — the one cut.
Here both run on twin caches small enough that a few dozen accesses
cross both ends, with victims that are L1-resident, already run or not
yet reached, and everything the two leave behind is compared:
per-access DSN and hit classes, both levels' contents in LRU order and
their values, every counter, the back-invalidation count, and the SMC's
own fill / evict / invalidate events.  The HSNs sit a stride apart, so
a batch's key span needs one, two or three of the 16-bit digits the
batch prelude sorts by.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment_cache import SegmentCacheConfig, SegmentMappingCache
from repro.telemetry import EventKind, EventTrace

SMC_KINDS = (EventKind.SMC_FILL, EventKind.SMC_EVICT,
             EventKind.SMC_INVALIDATE)


def dsn_of(hsn):
    """The mapping the tables hold, distinct per HSN (an int or an
    array of them, so it serves as ``resolve`` and ``resolve_batch``)."""
    return 1_000 + 3 * hsn


def scalar_lookups(smc: SegmentMappingCache, hsns: list[int],
                   fires: list[int]):
    """The reference: one lookup (and fill on a full miss) per access,
    each fire dropping the entry of the lookup at its offset."""
    fired = Counter(fires)
    out = []
    for offset, hsn in enumerate(hsns):
        result = smc.lookup(hsn)
        dsn = result.dsn
        if dsn is None:
            dsn = dsn_of(hsn)
            smc.fill(hsn, dsn)
        out.append((dsn, result.l1_hit, result.l2_hit))
        for _ in range(fired[offset]):
            smc.invalidate(hsn)
    return out


def batch_lookups(smc: SegmentMappingCache, hsns: list[int],
                  fires: list[int]):
    array = np.array(hsns, dtype=np.int64)
    dsns, l1_hits, l2_hits = smc.lookup_batch(
        array, dsn_of, resolve_batch=dsn_of,
        fires=[(offset, partial(smc.invalidate, hsns[offset]))
               for offset in fires])
    return list(zip(dsns.tolist(), l1_hits.tolist(), l2_hits.tolist()))


def snapshot(smc: SegmentMappingCache, trace: EventTrace) -> dict:
    """Everything a lookup sequence leaves behind."""
    state = {"back_invalidations": smc.back_invalidations}
    for name in ("l1", "l2"):
        level = getattr(smc, name)
        state[name] = (level.hsns(), sorted(level.items()),
                       level.stats.hits, level.stats.misses,
                       level.stats.invalidations)
    state["events"] = [event.to_dict() for event in trace.events()
                       if event.kind in SMC_KINDS]
    return state


def stream(rng: np.random.Generator, kind: str, universe: int,
           n: int, base: int, stride: int) -> list[int]:
    """HSNs ``base + stride * k`` for ``k`` below ``universe``: the
    stride spreads them over one 16-bit digit of the batch prelude's
    radix sort, or over two or three."""
    if kind == "uniform":
        ks = rng.integers(0, universe, n)
    else:
        ks = (rng.zipf(1.3, n) - 1) % universe
    return (base + stride * ks).tolist()


@settings(max_examples=250, deadline=None)
@given(l1_entries=st.integers(1, 8), sets=st.sampled_from([1, 2, 4]),
       ways=st.integers(1, 4), kind=st.sampled_from(["uniform", "zipf"]),
       universe=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       lengths=st.lists(st.integers(1, 120), min_size=1, max_size=4),
       with_fires=st.booleans(), base=st.integers(0, 2 ** 20),
       stride=st.sampled_from([1, 7, 4_099, 65_536, 2 ** 32 + 3]))
def test_lookup_batch_matches_scalar_loop(l1_entries, sets, ways, kind,
                                          universe, seed, lengths,
                                          with_fires, base, stride):
    config = SegmentCacheConfig(l1_entries=l1_entries,
                                l2_entries=sets * ways, l2_ways=ways)
    # Large enough that no event of the longest run is overwritten.
    traces = [EventTrace(4 * sum(lengths)) for _ in range(2)]
    scalar, batch = (SegmentMappingCache(config, trace=trace)
                     for trace in traces)
    rng = np.random.default_rng(seed)
    for n in lengths:
        hsns = stream(rng, kind, universe, n, base, stride)
        fires = (sorted(rng.integers(0, n, int(rng.integers(1, 4))).tolist())
                 if with_fires else [])
        assert batch_lookups(batch, hsns, fires) \
            == scalar_lookups(scalar, hsns, fires)
        assert snapshot(batch, traces[1]) == snapshot(scalar, traces[0])
