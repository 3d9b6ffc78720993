"""Per-call dispatch budget of a served ``access_batch``, as a count.

A 128-access request costs what its fixed per-call work costs, and most
of that is dispatch: one C-level call per numpy function, array method,
dict probe or list append the datapath makes.  ``sys.setprofile`` reports
each as a ``c_call`` event, so "fewer dispatches" is a number that
repeats exactly and needs no stopwatch (docs/PERF.md, "Short calls",
records it for the parent commit and for this one).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.controller import DtlController

from tests.core.test_batch_identity import (SERVED_AUS, SERVED_HOSTS,
                                            SERVED_VMS, build_pair,
                                            serve_step, served_config)

#: C-level calls the measured steady-state 128-access call may make.
#: The parent commit (PR 19) makes 435 and this tree 280 (Python 3.11,
#: numpy 2.4); the bound sits between them, with room for a numpy whose
#: Python wrappers dispatch a little differently.
C_CALL_BUDGET = 350
WARM_CALLS = 48


def c_calls(function) -> int:
    """How many C-level calls ``function()`` makes."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return count


def served_call(controller: DtlController, call: int):
    """Call number ``call`` of the interleaved stream: the host, the
    HPAs and the write mask.  Six VMs take turns; each draws its 128
    accesses like a ``serve_clean`` tenant (bench/wl_serve.py: zipf 1.2
    over 16 segments, 30 % writes) from its own 16 segments — and so
    its own 16 L2 sets — of its first AU: the six hot sets fit the L2
    and together overflow the 64-entry L1."""
    config = controller.config
    tenant = call % (SERVED_HOSTS * SERVED_VMS)
    host_id, vm = tenant % SERVED_HOSTS, tenant // SERVED_HOSTS
    rng = np.random.default_rng(call)
    weights = np.arange(1, 17, dtype=np.float64) ** -1.2
    segments = 16 * tenant + rng.choice(16, size=128,
                                        p=weights / weights.sum())
    hpas = (segments * config.geometry.segment_bytes
            + vm * SERVED_AUS * config.au_bytes)
    return host_id, hpas, rng.random(128) < 0.3


def warmed(controller: DtlController) -> float:
    """Serve ``WARM_CALLS`` requests; returns the clock afterwards."""
    clock_ns = 0.0
    for call in range(WARM_CALLS):
        host_id, hpas, writes = served_call(controller, call)
        controller.access_batch(host_id, hpas, writes, now_ns=clock_ns)
        clock_ns = serve_step(controller, clock_ns, len(hpas))
    return clock_ns


def test_served_call_stays_inside_its_dispatch_budget():
    first, second = build_pair(served_config(), SERVED_AUS, SERVED_HOSTS,
                               SERVED_VMS)
    counts = []
    for controller in (first, second):
        clock_ns = warmed(controller)
        host_id, hpas, writes = served_call(controller, WARM_CALLS)
        result = []
        counts.append(c_calls(lambda: result.append(
            controller.access_batch(host_id, hpas, writes,
                                    now_ns=clock_ns))))
        # The call measured is the served shape, not an easy one: one
        # chunk's worth of distinct segments, most of them evicted from
        # L1 by the other tenants since this VM's last turn.
        l1_misses = int((~result[0].smc_l1_hits).sum())
        assert 8 <= l1_misses <= controller.config.cache.l1_entries
    assert counts[0] == counts[1]  # a count, so it repeats exactly
    assert counts[0] <= C_CALL_BUDGET
