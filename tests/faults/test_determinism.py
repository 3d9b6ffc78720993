"""Determinism guarantees: seeded plans replay bit-identically.

Two properties back the reliability subsystem's claims:

* Replaying the same seeded plan over the same workload produces
  bit-identical telemetry snapshots (fault scheduling is a pure
  function of visit counters, never of wall clock or RNG draws).
* Arming a zero-fault plan is indistinguishable from not arming at
  all — the injector registers no metrics until a fault actually
  fires, and the batch datapath keeps its exact vectorised path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.faults import (ChaosSoakConfig, ChaosSoakExperiment, CxlLinkFault,
                          EccFault, FaultInjector, FaultPlan,
                          SmcCorruptionFault)
from repro.units import MIB


def run_workload(seed: int, plan: FaultPlan | None) -> str:
    """Drive a small mixed workload; return the snapshot as JSON."""
    controller = DtlController(DtlConfig(
        geometry=DramGeometry(channels=2, ranks_per_channel=2,
                              rank_bytes=4 * MIB, segment_bytes=128 * 1024),
        au_bytes=1 * MIB))
    if plan is not None:
        controller.arm_faults(FaultInjector(
            plan, registry=controller.metrics, trace=controller.trace))
    vm = controller.allocate_vm(0, 2 * MIB)
    rng = np.random.default_rng(seed)
    now_ns = 0
    segments_per_au = controller.host_layout.segments_per_au
    for _ in range(6):
        aus = rng.integers(0, len(vm.au_ids), size=64)
        segs = rng.integers(0, segments_per_au, size=64)
        lines = rng.integers(0, 2048, size=64)
        hpas = np.array(
            [controller.hpa_of(vm.au_ids[a], int(s), int(line) * 64)
             for a, s, line in zip(aus, segs, lines)], dtype=np.uint64)
        writes = rng.random(64) < 0.25
        controller.access_batch(0, hpas, writes, now_ns=now_ns)
        now_ns += 10_000
        controller.tick(now_ns)
        controller.end_window()
    return controller.telemetry_snapshot(now_ns).to_json()


@st.composite
def plans(draw):
    specs = draw(st.lists(st.one_of(
        st.builds(CxlLinkFault,
                  start=st.integers(0, 5), period=st.integers(1, 13)),
        st.builds(EccFault, start=st.integers(0, 5),
                  period=st.integers(1, 13), bits=st.integers(1, 2)),
        st.builds(SmcCorruptionFault, period=st.integers(1, 17)),
    ), min_size=1, max_size=4))
    return FaultPlan(seed=draw(st.integers(0, 2**16)), name="prop",
                     specs=tuple(specs))


class TestReplayIdentity:
    @settings(max_examples=10, deadline=None)
    @given(plan=plans(), seed=st.integers(0, 2**16))
    def test_same_plan_same_snapshot(self, plan, seed):
        assert run_workload(seed, plan) == run_workload(seed, plan)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_zero_fault_plan_equals_unarmed(self, seed):
        armed = run_workload(seed, FaultPlan(seed=seed, name="empty"))
        unarmed = run_workload(seed, None)
        assert armed == unarmed

    def test_chaos_soak_replays_bit_identically(self):
        config = ChaosSoakConfig(seed=11, levels=1, batches_per_phase=2,
                                 batch_size=16)
        first = ChaosSoakExperiment(config).run()
        second = ChaosSoakExperiment(config).run()
        assert first.snapshot == second.snapshot
        assert first.report.to_dict() == second.report.to_dict()
