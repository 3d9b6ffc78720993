"""Section 6.1: CXL memory access latency with the DTL in the path.

Paper: the hardware-automated translation adds only 4.2 ns on average
(AMAT 214.2 ns vs 210 ns vanilla CXL; max +123.7 ns, min +0.67 ns),
inflating execution time by 0.18 %.  L1/L2 SMC miss ratios are
14.7 % / 15.4 %.
"""

import numpy as np
import pytest

from repro.analysis.amat import AmatModel
from repro.core.addressing import HostAddressLayout
from repro.core.translation import TranslationEngine
from repro.dram.geometry import DramGeometry
from repro.units import GIB, MIB
from repro.workloads.cloudsuite import PROFILES, TraceGenerator

from conftest import report


def test_sec61_amat_equations(benchmark):
    model = benchmark.pedantic(AmatModel, rounds=1, iterations=1)
    report("Section 6.1: AMAT model", [
        ("translation overhead", f"{model.translation_overhead_ns():.2f} ns",
         "4.2 ns"),
        ("AMAT", f"{model.amat_ns():.1f} ns", "214.2 ns"),
        ("max increase", f"{model.max_overhead_ns():.1f} ns", "123.7 ns"),
        ("min increase", f"{model.min_overhead_ns():.2f} ns", "0.67 ns"),
        ("exec-time overhead",
         f"{model.execution_time_overhead():.2%}", "0.18%"),
    ], header=("metric", "measured", "paper"))
    assert model.amat_ns() == pytest.approx(214.2, abs=1.0)
    assert model.translation_overhead_ns() == pytest.approx(4.2, abs=0.3)
    assert model.max_overhead_ns() == pytest.approx(123.7, abs=5.0)
    assert model.min_overhead_ns() == pytest.approx(0.67, abs=0.02)
    assert model.execution_time_overhead() == pytest.approx(0.0018,
                                                            abs=0.0004)


def simulate_smc(num_accesses: int = 120_000):
    """Drive the real SMC with a synthetic post-cache trace and measure
    the hit ratios the paper reports from its own SMC simulation."""
    geometry = DramGeometry(rank_bytes=4 * GIB)
    layout = HostAddressLayout(geometry, au_bytes=2 * GIB)
    engine = TranslationEngine(layout)
    generator = TraceGenerator(PROFILES["data-caching"],
                               footprint_bytes=4 * GIB, seed=0)
    trace = generator.generate(num_accesses)
    hsn_offset = trace.addresses // np.uint64(geometry.segment_bytes)
    segments_per_au = layout.segments_per_au
    for au_id in range(4 * GIB // (2 * GIB)):
        engine.tables.allocate_au(0, [au_id])
    mapped = set()
    for raw in hsn_offset:
        local = int(raw)
        hsn = layout.pack_hsn(0, local // segments_per_au,
                              local % segments_per_au)
        if hsn not in mapped:
            engine.tables.map_segment(hsn, len(mapped))
            mapped.add(hsn)
        engine.translate_hsn(hsn)
    return engine


def test_sec61_smc_simulation(benchmark):
    engine = benchmark.pedantic(simulate_smc, rounds=1, iterations=1)
    l1_miss = engine.smc.l1.stats.miss_ratio
    l2_miss = engine.smc.l2.stats.miss_ratio
    measured_amat = engine.measured_amat_ns()
    report("Section 6.1: SMC simulation", [
        ("L1 SMC miss ratio", f"{l1_miss:.1%}", "14.7%"),
        ("L2 SMC miss ratio", f"{l2_miss:.1%}", "15.4%"),
        ("mean translation", f"{engine.mean_observed_latency_ns():.2f} ns",
         "4.2 ns"),
        ("AMAT-formula value", f"{measured_amat:.2f} ns", "4.2 ns"),
    ], header=("metric", "measured", "paper"))
    # Shape: the two-level SMC filters nearly every table walk (the L2
    # catches what the tiny L1 spills), so the measured mean translation
    # latency lands within a few ns of the paper's 4.2 ns — far below the
    # 123.7 ns worst case.
    assert l2_miss < 0.2
    assert engine.mean_observed_latency_ns() < 10.0
    # The paper's AMAT equation evaluated on measured ratios agrees with
    # the directly accumulated latency.
    assert measured_amat == pytest.approx(
        engine.mean_observed_latency_ns(), rel=0.35)
