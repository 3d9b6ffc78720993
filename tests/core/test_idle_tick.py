"""An idle channel's tick skips ``start_profiling`` exactly when it
could only fail.

``HotnessSelfRefreshPolicy.tick`` counts an ``IDLE`` channel's standby
ranks and calls ``start_profiling`` only when there are enough for two
victim blocks; a failed attempt changes nothing but the ``IDLE`` phase
the channel already has.  The property drives two shards in the served
shape (power-down and self-refresh on, background consolidation) through
random allocations, frees, access batches and time jumps; the twin's
policy re-derives on every tick, as the policy did before the skip.
After every applied request — each runs at most one tick — every
channel's phase, victim block, quiet timer and planned table, the policy
events, the rank states and roles agree.
"""

from __future__ import annotations

import types

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import small_dtl_config
from repro.core.self_refresh import ChannelPhase, HotnessSelfRefreshPolicy
from repro.errors import ReproError
from repro.server.shards import ControllerShard
from repro.units import MIB


def always_rederiving_tick(policy: HotnessSelfRefreshPolicy,
                           now_ns: float) -> list:
    """The oracle: ``tick`` calling ``start_profiling`` for every
    ``IDLE`` channel, whatever its ranks."""
    fired = []
    for channel, state in policy._channels.items():
        if state.phase is ChannelPhase.IDLE:
            policy.start_profiling(channel, now_ns)
            continue
        if state.phase is ChannelPhase.SELF_REFRESH:
            if now_ns - state.last_sr_entry_ns >= policy.revisit_delay_ns:
                policy.start_profiling(channel, now_ns)
            continue
        if state.phase is not ChannelPhase.PROFILING:
            continue
        if now_ns - state.quiet_since_ns >= policy.profiling_threshold_ns:
            event = policy._enter_self_refresh(channel, state, now_ns)
            if event is not None:
                fired.append(event)
    return fired


def twins() -> tuple[ControllerShard, ControllerShard]:
    shard, oracle = (ControllerShard(0, small_dtl_config())
                     for _ in range(2))
    policy = oracle.controller.self_refresh
    policy.tick = types.MethodType(always_rederiving_tick, policy)
    return shard, oracle


def assert_twins_agree(shard: ControllerShard,
                       oracle: ControllerShard) -> None:
    mine = shard.controller.self_refresh
    theirs = oracle.controller.self_refresh
    for channel in mine._channels:
        assert (mine.phase(channel), mine.victim_ranks(channel),
                mine._channels[channel].quiet_since_ns) \
            == (theirs.phase(channel), theirs.victim_ranks(channel),
                theirs._channels[channel].quiet_since_ns), channel
    assert mine._channels == theirs._channels
    assert np.array_equal(mine.planned, theirs.planned)
    assert np.array_equal(mine.access_bits, theirs.access_bits)
    assert mine.events == theirs.events
    assert shard.fingerprint() == oracle.fingerprint()


#: One request each: allocate ``(host, MiB)``; free the live VM picked
#: by index; an access batch over the picked VM's segments (``narrow``
#: keeps to two of them, so the other ranks go quiet and self-refresh
#: can enter); or a jump of the clock ahead of the next request.
requests = st.lists(st.one_of(
    st.tuples(st.just("allocate"), st.integers(0, 2), st.integers(1, 24)),
    st.tuples(st.just("free"), st.integers(0, 63)),
    st.tuples(st.just("access"), st.integers(0, 63),
              st.integers(0, 2 ** 16), st.booleans()),
    st.tuples(st.just("wait"), st.sampled_from(
        [50_000.0, 250_000.0, 5_000_000.0]))), min_size=8, max_size=48)


#: A script that reopens a fenced rank by role alone: an allocation
#: reactivates the rank a consolidation fenced (still in standby), and
#: the next tick may profile where the one before could not.
ROLE_ONLY_REOPEN = [
    ("allocate", 0, 20), ("allocate", 2, 16), ("access", 57, 43548, False),
    ("allocate", 0, 21), ("allocate", 1, 16), ("access", 61, 33248, False),
    ("free", 23), ("free", 36), ("free", 27), ("wait", 5_000_000.0),
    ("access", 2, 24747, True), ("access", 4, 33270, False),
    ("access", 33, 57417, False), ("allocate", 0, 14), ("allocate", 1, 8),
    ("access", 0, 62733, False)]


@settings(max_examples=150, deadline=None)
@given(script=requests)
@example(script=ROLE_ONLY_REOPEN)
def test_idle_tick_skip_matches_a_tick_that_always_rederives(script):
    shard, oracle = twins()
    live: list = []
    clock_s = 0.0
    for op, *args in script:
        if op == "wait":
            clock_s += args[0] / 1e9
            continue
        clock_s += 1e-6
        outcomes = []
        for twin in (shard, oracle):
            try:
                if op == "allocate":
                    host, mib = args
                    outcome = twin.apply_allocate(host, mib * MIB, clock_s)
                elif not live:
                    continue
                elif op == "free":
                    outcome = twin.apply_free(live[args[0] % len(live)],
                                              clock_s)
                else:
                    vm, seed, narrow = args
                    vm = live[vm % len(live)]
                    rng = np.random.default_rng(seed)
                    segments = (len(vm.au_ids)
                                * twin.controller.host_layout.segments_per_au)
                    pool = np.arange(min(2, segments) if narrow else segments)
                    picked = rng.choice(pool, 64)
                    outcome = twin.apply_access_batch(
                        vm, picked, rng.integers(0, 1024, 64),
                        rng.random(64) < 0.3, clock_s).latency_ns.tolist()
            except ReproError as exc:
                outcome = repr(exc)
            outcomes.append(outcome)
        if outcomes:
            assert outcomes[0] == outcomes[1]
            if op == "allocate" and not isinstance(outcomes[0], str):
                live.append(outcomes[0])
            elif op == "free" and not isinstance(outcomes[0], str):
                live.remove(live[args[0] % len(live)])
        assert_twins_agree(shard, oracle)


def test_the_served_state_skips_every_idle_channel():
    """One open standby rank and three parked ones per channel — the
    ``serve_clean`` shape — is never worth a profiling attempt."""
    shard, oracle = twins()
    for twin in (shard, oracle):
        # The second VM's free parks every empty rank.
        vm = twin.apply_allocate(0, 2 * MIB, 0.0)
        twin.apply_free(twin.apply_allocate(1, 2 * MIB, 0.0), 1e-3)
    controller = shard.controller
    for channel in range(controller.geometry.channels):
        roles = [controller.allocator.role((channel, rank)).value
                 for rank in range(controller.geometry.ranks_per_channel)]
        assert sorted(roles) == ["open", "parked", "parked", "parked"]
    attempts = []
    policy = controller.self_refresh
    start = policy.start_profiling
    policy.start_profiling = lambda *args: attempts.append(args) or start(
        *args)
    segments = np.arange(128) % 16
    for step in range(20):
        for twin in (shard, oracle):
            twin.apply_access_batch(vm, segments, np.zeros(128, np.int64),
                                    segments % 3 == 0, 2e-3 + 1e-3 * step)
        assert_twins_agree(shard, oracle)
    assert attempts == []
    assert {policy.phase(channel) for channel in policy._channels} \
        == {ChannelPhase.IDLE}
