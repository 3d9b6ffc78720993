"""A shard drains in closed form exactly as one pump round at a time.

``ControllerShard.drain_migrations`` runs its pump rounds through
``MigrationEngine.advance``, which computes the rounds from each
request's remaining lines.  The property drives two shards through the
same random allocate / free / access / wait script under a random plan
of ``MigrationAbortFault`` specs: the twin steps every pump, every
engine drain and every shard drain one request and one round at a time
(``tests/core/pump_reference.py``).  Access batches pump between
requests, so frees find consolidation copies mid-copy, with completion
bits set and some requeued by conflicting writes.  After every request
the shards agree on everything observable: replies, fingerprints, the
clock bit for bit, audits and violations, the injector's report and
per-spec counters, trace counts by kind, power-down transitions with
their times, the engine's stats and its queues; at the end, each
migration event kind's events in order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import small_dtl_config
from repro.dram.geometry import DramGeometry
from repro.errors import ReproError
from repro.faults import FaultPlan, MigrationAbortFault
from repro.server import shards
from repro.server.server import server_fault_plan
from repro.server.shards import ControllerShard
from repro.telemetry import EventKind
from repro.units import KIB, MIB

from tests.core.pump_reference import stepping

#: Two small devices of sixteen AUs a rank: 8-line segments (not a
#: multiple of ``DRAIN_PUMP_LINES``: every copy is one short chunk) and
#: 64-line ones (several chunks a copy).
RANK_BYTES = {8: 256 * KIB, 64: 1 * MIB}


def config(lines: int):
    geometry = DramGeometry(channels=2, ranks_per_channel=4,
                            rank_bytes=RANK_BYTES[lines],
                            segment_bytes=lines * 64)
    return dataclasses.replace(small_dtl_config(), geometry=geometry,
                               au_bytes=RANK_BYTES[lines] // 16)


aborts = st.builds(
    MigrationAbortFault, start=st.integers(0, 30), period=st.integers(1, 7),
    max_fires=st.integers(0, 12),
    at_lines_done=st.sampled_from([-1, -1, 0, 8, 16, 24, 48]),
    channel=st.sampled_from([-1, -1, 0, 1]))

#: One request each: allocate ``(host, AUs)``; free the live VM picked
#: by index; an access batch over the picked VM (30 % writes, or none);
#: a jump of the clock; or a drain on its own.  A script opens with
#: allocations that fill most of the device, so its frees consolidate.
allocate = st.tuples(st.just("allocate"), st.integers(0, 2),
                     st.integers(4, 24))
free = st.tuples(st.just("free"), st.integers(0, 63))
requests = st.tuples(
    st.lists(allocate, min_size=4, max_size=8),
    st.lists(st.one_of(
        allocate, free, free,
        st.tuples(st.just("access"), st.integers(0, 63),
                  st.integers(0, 2 ** 16), st.booleans()),
        st.tuples(st.just("wait"), st.sampled_from([1e-5 / 7, 1e-3 / 7])),
        st.tuples(st.just("drain"))), min_size=4, max_size=30),
).map(lambda parts: parts[0] + parts[1])

#: Frees of half a full device under a plan that fires on every fourth
#: eligible copy step of channel 0 at progress 0, one always-firing spec
#: behind it, and a pump grant that splits a 64-line copy 24/24/16.
LONG_DRAIN = dict(
    lines=64, pump_lines=24, limit=None,
    specs=[MigrationAbortFault(start=0, period=4, max_fires=9,
                               at_lines_done=0, channel=0),
           MigrationAbortFault(start=3, period=1, max_fires=6)],
    script=[("allocate", host, 6) for host in (0, 1, 2, 0, 1, 2, 0, 1)]
    + [("access", 3, 7, True), ("free", 1), ("free", 3),
       ("access", 2, 8, True), ("free", 0), ("free", 0), ("drain",)])


MIGRATION_KINDS = (EventKind.MIGRATION_RETIRE, EventKind.MIGRATION_ABORT,
                   EventKind.MIGRATION_REQUEUE, EventKind.FAULT_INJECTED)


def events(shard: ControllerShard) -> dict:
    """Each migration kind's events in order (a retire run is recorded
    in (round, channel) order, one event at a time by the twin)."""
    trace = shard.controller.trace
    assert trace.dropped == 0
    return {kind: [event.to_dict() for event in trace.events(kind)]
            for kind in MIGRATION_KINDS}


def state(shard: ControllerShard) -> dict:
    controller = shard.controller
    engine = controller.migration
    injector = shard.injector
    queues = []
    for channel in range(controller.geometry.channels):
        inflight = engine.in_flight(channel)
        queues.append((None if inflight is None else inflight.old_dsn,
                       [queued.old_dsn for queued in engine.queued(channel)]))
    return {
        "fingerprint": shard.fingerprint(),
        "clock": (type(shard.clock_ns), shard.clock_ns),
        "audits": shard.audits,
        "violations": list(shard.violations),
        "report": injector.report().to_dict(),
        "spec_counters": (list(injector._spec_visits),
                          list(injector._spec_fires)),
        "trace": controller.trace.counts_by_kind(),
        "transitions": list(controller.power_down.transitions),
        "stats": repr(engine.stats),
        "copies": [(request.hsn, request.old_dsn, request.new_dsn,
                    request.lines_done, request.completion, request.retries,
                    request.requeues)
                   for request in engine.tracked_requests()],
        "queues": queues,
    }


def apply(shard: ControllerShard, live: list, op: str, args: list,
          clock_s: float):
    """Serve one request; returns its reply (or error) as a value."""
    try:
        if op == "allocate":
            host, aus = args
            au_bytes = shard.controller.config.au_bytes
            return shard.apply_allocate(host, aus * au_bytes, clock_s)
        if op == "drain":
            shard.drain_migrations()
            return None
        if not live:
            return None
        vm = live[args[0] % len(live)]
        if op == "free":
            return shard.apply_free(vm, clock_s)
        seed, writing = args[1:]
        rng = np.random.default_rng(seed)
        controller = shard.controller
        segments = len(vm.au_ids) * controller.host_layout.segments_per_au
        lines = controller.migration.lines_per_segment
        return shard.apply_access_batch(
            vm, rng.integers(0, segments, 64), rng.integers(0, lines, 64),
            rng.random(64) < (0.3 if writing else 0.0),
            clock_s).latency_ns.tolist()
    except ReproError as exc:
        return repr(exc)


def run_twins(lines: int, pump_lines: int, limit: int | None, specs: list,
              script: list) -> tuple[ControllerShard, ControllerShard]:
    plan = FaultPlan(seed=0, name="drain-property", specs=tuple(specs))
    if limit is None and any(not spec.max_fires for spec in specs):
        limit = 300  # an uncapped spec may abort every step
    saved = shards.DRAIN_PUMP_LINES, shards.DRAIN_STEP_LIMIT
    shards.DRAIN_PUMP_LINES = pump_lines
    if limit is not None:
        shards.DRAIN_STEP_LIMIT = limit
    try:
        shard = ControllerShard(0, config(lines), fault_plan=plan)
        oracle = stepping(ControllerShard(0, config(lines), fault_plan=plan))
        for twin in (shard, oracle):
            twin.controller.trace.capacity = 1 << 20  # drops nothing
        lives: tuple[list, list] = ([], [])
        clock_s = 0.0
        for op, *args in script:
            if op == "wait":
                clock_s += args[0]
                continue
            clock_s += 1e-6 / 3  # a fractional ns, rounded on arrival
            replies = [apply(twin, live, op, args, clock_s)
                       for twin, live in zip((shard, oracle), lives)]
            if op == "allocate" and not isinstance(replies[0], str):
                for live, vm in zip(lives, replies):
                    live.append(vm)
                replies = [vm.vm_id for vm in replies]
            elif op == "free" and lives[0] and not isinstance(replies[0],
                                                              str):
                for live in lives:
                    live.pop(args[0] % len(live))
            assert replies[0] == replies[1], (op, args)
            assert state(shard) == state(oracle), (op, args)
        assert events(shard) == events(oracle)
    finally:
        shards.DRAIN_PUMP_LINES, shards.DRAIN_STEP_LIMIT = saved
    return shard, oracle


@settings(max_examples=120, deadline=None)
@given(lines=st.sampled_from(sorted(RANK_BYTES)),
       pump_lines=st.sampled_from([shards.DRAIN_PUMP_LINES, 24]),
       limit=st.sampled_from([None, None, None, None, 5, 60]),
       specs=st.lists(aborts, max_size=3), script=requests)
@example(**LONG_DRAIN)
def test_closed_form_drain_matches_the_per_round_loop(lines, pump_lines, limit,
                                                      specs, script):
    run_twins(lines, pump_lines, limit, specs, script)


def test_the_long_drain_aborts_requeues_and_parks():
    """The pinned example reaches what the property is about: a drain
    that fires, requeues, and parks a victim group at its last round."""
    shard, _ = run_twins(**LONG_DRAIN)
    stats = shard.controller.migration.stats
    assert stats.aborts > 10 and stats.requeues > 0
    assert shard.audits >= 10 and shard.violations == []
    assert any(transition.new_state.name == "MPSM"
               for transition in shard.controller.power_down.transitions)


def test_the_chaos_plan_caps_a_shard_at_sixteen_aborts():
    """``server_fault_plan``'s ``MigrationAbortFault(start=1, period=5)``
    keeps the spec's default ``max_fires`` of 16: a shard fires its
    sixteen aborts early in a long drain, and every later copy step only
    counts a visit."""
    shard = ControllerShard(0, small_dtl_config(),
                            fault_plan=server_fault_plan(0, 0))
    vms = [shard.apply_allocate(host % 4, 16 * MIB, 0.0)
           for host in range(6)]
    aborts = shard.injector.plan.specs[5]
    assert isinstance(aborts, MigrationAbortFault) and aborts.max_fires == 16
    for vm, t_s in zip(vms[1:4], (1e-3, 2e-3, 3e-3)):
        shard.apply_free(vm, t_s)
    shard.drain_migrations()
    report = shard.injector.report()
    assert report.injected["migration.copy"] == 16
    assert report.hook_visits["migration.copy"] > 1_000
    # Its schedule alone would have fired far more often.
    assert shard.injector._spec_visits[5] > aborts.start + 16 * aborts.period
    assert shard.audits >= 16 and shard.violations == []


def test_a_long_drain_advances_the_clock_by_one_product():
    """A long drain from an odd integer clock advances it by exactly
    ``rounds * ACCESS_PERIOD_NS``, the product the shard takes in one
    multiplication, and ends where the twin's one addition per round
    does, bit for bit: integer addition is exact."""
    plan = FaultPlan(seed=0, name="clock", specs=(
        MigrationAbortFault(start=2, period=9, max_fires=4),))
    twins = (ControllerShard(0, config(64), fault_plan=plan),
             stepping(ControllerShard(0, config(64), fault_plan=plan)))
    for twin in twins:
        vms = [twin.apply_allocate(host % 3,
                                   8 * twin.controller.config.au_bytes)
               for host in range(6)]
        twin.apply_free(vms[1])
        twin.apply_free(vms[3])  # leaves a whole rank group copying
        assert twin.controller.migration.pending_count()
        twin.clock_ns = 2 ** 53 + 1  # odd, and past a float's integers
        twin.drain_migrations()
    shard, oracle = twins
    assert type(shard.clock_ns) is int and shard.clock_ns == oracle.clock_ns
    assert state(shard) == state(oracle)
    rounds, rest = divmod(shard.clock_ns - (2 ** 53 + 1),
                          shards.ACCESS_PERIOD_NS)
    assert rest == 0 and rounds > 100
