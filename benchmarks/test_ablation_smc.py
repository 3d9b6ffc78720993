"""Ablation: segment mapping cache sizing (Table 3's 64 / 1024 entries).

Sweeps the L1/L2 SMC sizes and shows the paper's configuration sits where
the translation overhead has flattened: doubling the caches buys little,
halving them visibly hurts.
"""

import numpy as np
import pytest

from repro.core.addressing import HostAddressLayout
from repro.core.segment_cache import SegmentCacheConfig
from repro.core.translation import TranslationEngine
from repro.dram.geometry import DramGeometry
from repro.units import GIB
from repro.workloads.cloudsuite import PROFILES, TraceGenerator

from conftest import report


def run_config(l1_entries: int, l2_entries: int,
               num_accesses: int = 60_000) -> float:
    geometry = DramGeometry(rank_bytes=4 * GIB)
    layout = HostAddressLayout(geometry, au_bytes=2 * GIB)
    engine = TranslationEngine(layout, cache_config=SegmentCacheConfig(
        l1_entries=l1_entries, l2_entries=l2_entries))
    generator = TraceGenerator(PROFILES["data-caching"],
                               footprint_bytes=4 * GIB, seed=0)
    trace = generator.generate(num_accesses)
    segments_per_au = layout.segments_per_au
    for au_id in range(2):
        engine.tables.allocate_au(0, [au_id])
    mapped = set()
    for raw in trace.addresses // np.uint64(geometry.segment_bytes):
        local = int(raw)
        hsn = layout.pack_hsn(0, local // segments_per_au,
                              local % segments_per_au)
        if hsn not in mapped:
            engine.tables.map_segment(hsn, len(mapped))
            mapped.add(hsn)
        engine.translate_hsn(hsn)
    return engine.mean_observed_latency_ns()


def test_ablation_smc_sizing(benchmark):
    def sweep():
        return {
            "quarter (16/256)": run_config(16, 256),
            "half (32/512)": run_config(32, 512),
            "paper (64/1024)": run_config(64, 1024),
            "double (128/2048)": run_config(128, 2048),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [(name, f"{latency:.2f} ns")
            for name, latency in results.items()]
    report("Ablation: SMC sizing vs mean translation latency", rows,
           header=("config", "overhead"))
    # Shrinking below the paper's configuration hurts visibly
    # (quarter-size costs several-fold more translation latency)...
    assert results["quarter (16/256)"] > 2.0 * results["paper (64/1024)"]
    assert results["half (32/512)"] > 1.5 * results["paper (64/1024)"]
    # ...while doubling buys only a couple of nanoseconds.
    assert results["paper (64/1024)"] - results["double (128/2048)"] < 3.0


def test_ablation_l2_does_the_heavy_lifting():
    """Without the L2 SMC every L1 miss walks the tables."""
    with_l2 = run_config(64, 1024, num_accesses=30_000)
    without_l2 = run_config(64, 64, num_accesses=30_000)
    assert without_l2 > 1.5 * with_l2
