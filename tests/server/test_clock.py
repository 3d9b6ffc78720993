"""A shard keeps one clock of integer nanoseconds.

Requests carry ``t`` in seconds; a shard rounds it to the nanosecond once,
on arrival (``repro.units.s_to_ns``), and from there the clock only adds
integers: ``ACCESS_PERIOD_NS`` per access, one per drain round.  The
property drives a served shard (chaos plan armed) through random bursts
of queued access batches at fractional ``t``, allocations, frees and
drains, and after every request checks:

* the clock is an ``int`` and never goes backwards;
* an access batch of ``n`` stamped ``t`` leaves it at
  ``max(previous, s_to_ns(t)) + n * ACCESS_PERIOD_NS``, and a free or a
  drain moves it by whole access periods past ``max(previous,
  s_to_ns(t))``;
* the ticks ``_quiet_prefix`` predicts for a queued run are the clocks
  the applied requests reach;
* every time the shard recorded — trace events, self-refresh events,
  power transitions — is an ``int``.
"""

from __future__ import annotations

import asyncio

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import small_dtl_config
from repro.errors import ReproError
from repro.server import DtlServer, ServerConfig, shard_of
from repro.server.server import server_fault_plan
from repro.server.shards import ACCESS_PERIOD_NS, ControllerShard
from repro.units import MIB, s_to_ns

from tests.server.test_lookahead import tenants_by_shard

#: Seconds between requests: fractional nanoseconds (1e-6 / 3 s is
#: 333.33 ns), and gaps shorter and longer than a 64-access batch.
gaps = st.one_of(st.just(0.0), st.just(1e-6 / 3),
                 st.floats(0.0, 2e-5, allow_nan=False))
access = st.tuples(st.integers(0, 7), st.integers(1, 64), gaps)
requests = st.lists(st.one_of(
    st.tuples(st.just("burst"), st.lists(access, min_size=1, max_size=6)),
    st.tuples(st.just("allocate"), st.integers(0, 3), gaps),
    st.tuples(st.just("free"), st.integers(0, 7), gaps),
    st.tuples(st.just("drain"))), min_size=1, max_size=16)


class ClockedShard:
    """A served shard, its hooks wrapped to see every tick and every
    look-ahead prediction."""

    def __init__(self):
        self.shard = ControllerShard(0, small_dtl_config(),
                                     fault_plan=server_fault_plan(0, 0))
        controller = self.shard.controller
        controller.trace.capacity = 1 << 20  # drops nothing
        self.ticks: list[int] = []
        self.predictions: list[tuple[int, list[int], list[int], int]] = []
        tick, calls = controller.tick, controller.look_ahead_calls

        def record_tick(now_ns):
            self.ticks.append(now_ns)
            return tick(now_ns)

        def record_prediction(lengths, ticks_ns, now_ns):
            self.predictions.append((len(self.ticks), list(lengths),
                                     list(ticks_ns), now_ns))
            return calls(lengths, ticks_ns, now_ns)

        controller.tick = record_tick
        controller.look_ahead_calls = record_prediction
        self.loop = asyncio.new_event_loop()
        self.vms = [self.shard.apply_allocate(host, 16 * MIB, 0.0)
                    for host in range(4)]
        self.t_s = 0.0

    def burst(self, accesses: list[tuple[int, int, float]]) -> None:
        """Queue the access batches together, serve them as the apply
        task would, and check each one's clock."""
        shard, controller = self.shard, self.shard.controller
        rng = np.random.default_rng(len(self.ticks))
        items, expected = [], []
        clock_ns = shard.clock_ns
        for pick, n, gap in accesses:
            self.t_s += gap
            vm = self.vms[pick % len(self.vms)]
            segments = len(vm.au_ids) * controller.host_layout.segments_per_au
            args = (vm, rng.integers(0, segments, n),
                    rng.integers(0, controller.migration.lines_per_segment,
                                 n), rng.random(n) < 0.3, self.t_s)
            items.append((shard.apply_access_batch, args,
                          self.loop.create_future()))
            clock_ns = max(clock_ns, s_to_ns(self.t_s)) + n * ACCESS_PERIOD_NS
            expected.append(clock_ns)
        start = len(self.ticks)
        assert not shard._serve(items)
        for _, _, future in items:
            assert future.exception() is None
        reached = self.ticks[start:]
        assert reached == expected
        assert all(type(tick) is int for tick in reached)
        assert shard.clock_ns == expected[-1]
        for at, lengths, ticks_ns, now_ns in self.predictions:
            if at >= start:
                assert ticks_ns == self.ticks[at:at + len(ticks_ns)]
                assert now_ns == ticks_ns[0] - lengths[0] * ACCESS_PERIOD_NS

    def barrier(self, op: str, args: tuple) -> None:
        """An allocation, a free or a drain: the clock moves to the
        request's ``t`` and then by whole access periods only."""
        shard = self.shard
        previous = shard.clock_ns
        if op == "drain":
            shard.drain_migrations()
            floor = previous
        else:
            self.t_s += args[-1]
            floor = max(previous, s_to_ns(self.t_s))
            try:
                if op == "allocate":
                    self.vms.append(shard.apply_allocate(args[0], 4 * MIB,
                                                         self.t_s))
                elif len(self.vms) > 1:
                    vm = self.vms.pop(args[0] % len(self.vms))
                    shard.apply_free(vm, self.t_s)
                else:
                    floor = previous  # nothing to free: no request
            except ReproError:
                pass  # a full device refuses, having observed ``t``
        assert type(shard.clock_ns) is int
        assert shard.clock_ns >= floor >= previous
        assert (shard.clock_ns - floor) % ACCESS_PERIOD_NS == 0

    def check_recorded_times(self) -> None:
        controller = self.shard.controller
        assert controller.trace.dropped == 0
        assert all(type(event.time) is int
                   for event in controller.trace.events())
        assert all(type(event.time_ns) is int
                   for event in controller.self_refresh.events)
        assert all(type(transition.time_ns) is int
                   for transition in controller.power_down.transitions)


@settings(max_examples=60, deadline=None)
@given(script=requests)
@example(script=[("burst", [(0, 64, 1e-6 / 3)] * 4), ("free", 1, 1e-6 / 3),
                 ("burst", [(2, 17, 0.0), (3, 64, 2e-5), (0, 1, 1e-6 / 3)]),
                 ("drain",), ("burst", [(1, 5, 1e-6 / 3)] * 3)])
def test_the_shard_clock_is_integer_nanoseconds(script):
    clocked = ClockedShard()
    for op, *args in script:
        if op == "burst":
            clocked.burst(args[0])
        else:
            clocked.barrier(op, tuple(args))
        clocked.check_recorded_times()
    clocked.loop.close()


def test_a_time_with_no_nanosecond_reading_is_refused_at_the_boundary():
    """A finite ``t`` of 1e300 s has no integer nanosecond.  Two access
    batches stamped with it, queued together with a good one on one
    shard, are each a BAD_REQUEST; the good one and every later request
    are still served."""
    names = tenants_by_shard((3, 0))

    async def scenario():
        server = DtlServer(ServerConfig())
        await server.start(serve_tcp=False)
        vms = {}
        for name in names:
            await server.handle_request(
                {"op": "open_tenant", "tenant": name, "t": 0.5})
            reply = await server.handle_request(
                {"op": "allocate", "tenant": name, "bytes": 2 << 20,
                 "t": 0.6})
            vms[name] = reply["vm"]
        shard = server.shards[shard_of(names[0], 2)]
        clock_ns = shard.clock_ns
        requests = [{"op": "access_batch", "tenant": name, "vm": vms[name],
                     "segments": [0, 1], "t": t}
                    for name, t in zip(names, (1e300, -1e300, 1.0))]
        # A dead apply task would leave the replies waiting forever.
        replies = await asyncio.wait_for(asyncio.gather(
            *(server.handle_request(request) for request in requests)), 60)
        assert [reply.get("error") for reply in replies[:2]] \
            == ["bad_request"] * 2
        assert replies[2]["ok"]
        assert shard.clock_ns == s_to_ns(1.0) + 2 * ACCESS_PERIOD_NS \
            > clock_ns
        later = await server.handle_request({**requests[0], "t": 2.0})
        assert later["ok"]
        counters = server.metrics.counter_values()
        assert counters.get("server.internal_errors", 0) == 0
        await server.drain()
        assert not server.audit_violations()

    asyncio.run(scenario())


def test_a_queued_time_with_no_nanosecond_reading_fails_only_its_call():
    """Below the server, a shard handed such a ``t`` directly raises in
    that call alone: the look-ahead scan stops at it rather than ending
    the apply task, and the shard keeps serving."""
    async def scenario():
        shard = ControllerShard(0, small_dtl_config())
        shard.start()
        vm = shard.apply_allocate(0, 16 * MIB, 0.0)
        batch = (vm, np.arange(4), np.zeros(4, np.int64), np.zeros(4, bool))
        results = await asyncio.wait_for(asyncio.gather(
            *(shard.submit(shard.apply_access_batch, *batch, t)
              for t in (1.0, 1e300, 1e300, 2.0)),
            return_exceptions=True), 60)
        assert [type(result) for result in results[1:3]] \
            == [OverflowError] * 2
        assert len(results[0].hpas) == len(results[3].hpas) == 4
        assert shard.clock_ns == s_to_ns(2.0) + 4 * ACCESS_PERIOD_NS
        result = await shard.submit(shard.apply_access_batch, *batch, 3.0)
        assert len(result.hpas) == 4
        await shard.stop()

    asyncio.run(scenario())
