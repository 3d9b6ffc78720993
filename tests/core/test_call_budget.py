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
                                            serve_looking_ahead,
                                            serve_one_by_one, serve_step,
                                            served_call, served_config)

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


def test_look_ahead_over_four_calls_dispatches_less_than_four_calls():
    """What a shard saves by serving four queued requests through one
    look-ahead, hooks excluded (they run once per request either way):
    the split, the packing, the SMC lookup and the decode are entered
    once, not four times."""
    def dispatches(serve) -> tuple[int, tuple]:
        """C-level calls inside the datapath calls ``serve`` makes for
        the next four requests of a freshly warmed controller, and what
        ``serve`` returned."""
        controller = build_pair(served_config(), SERVED_AUS, SERVED_HOSTS,
                                SERVED_VMS)[0]
        clock_ns = warmed(controller)
        queued = [(*served_call(controller, call), None)
                  for call in range(WARM_CALLS, WARM_CALLS + 4)]
        total = 0

        def counted(datapath_call):
            nonlocal total
            result = []
            total += c_calls(lambda: result.append(datapath_call()))
            return result[0]

        served = serve(controller, queued, clock_ns, counted)
        return total, served

    singles, _ = dispatches(serve_one_by_one)
    shared, (_, _, prefixes) = dispatches(serve_looking_ahead)
    assert prefixes == [4]
    assert dispatches(serve_looking_ahead)[0] == shared  # repeats exactly
    assert shared <= 0.85 * singles
