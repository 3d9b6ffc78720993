"""The pump schedule stepped one request and one round at a time: the
oracle :meth:`repro.core.migration.MigrationEngine.advance` and the
closed-form :meth:`repro.server.shards.ControllerShard.drain_migrations`
are held against (``tests/server/test_drain_closed_form.py``).

:func:`step_channel` copies one channel's in-flight request a chunk at a
time and asks the ``migration.copy`` hook once per chunk
(:func:`on_migration_copy`); a copy retires one call at a time.
:func:`drain_migrations` is the shard's drain as a loop of pump rounds,
one access period each.  :func:`stepping` swaps all three into a shard.
"""

from __future__ import annotations

import types

import numpy as np

from repro.core import migration as engine_module
from repro.core.migration import MigrationEngine, MigrationRequest
from repro.faults.hooks import HookPoint
from repro.faults.injector import FaultInjector
from repro.server import shards
from repro.server.shards import ControllerShard

_NO_SLOT = engine_module._NO_SLOT
_LINES_DONE = engine_module._LINES_DONE
_COMPLETION = engine_module._COMPLETION


def step_channel(engine: MigrationEngine, channel: int,
                 foreground_busy: bool = False, lines: int = 1) -> int:
    """Copy up to ``lines`` cachelines on ``channel``; a finished copy
    sets its completion bit and ends the step, and retires at the start
    of the channel's next step."""
    if foreground_busy:
        return 0
    copied = 0
    queue = engine._queues[channel]
    while copied < lines:
        slot = engine._inflight[channel]
        if slot == _NO_SLOT:
            if not len(queue):
                break
            slot = engine._inflight[channel] = queue.slots().item(0)
            queue.drop(1)
        table = engine._table
        if table.item(_COMPLETION, slot):
            retire(engine, channel, slot)
            continue
        if (engine._faults is not None
                and on_migration_copy(engine._faults,
                                      MigrationRequest(engine, slot),
                                      channel)):
            engine._abort(slot)
            break
        done = table.item(_LINES_DONE, slot)
        take = min(lines - copied, engine.lines_per_segment - done)
        table[_LINES_DONE, slot] = done + take
        copied += take
        engine.stats.lines_copied += take
        if done + take == engine.lines_per_segment:
            table[_COMPLETION, slot] = 1
            break
    return copied


def on_migration_copy(injector: FaultInjector, request,
                      channel: int) -> bool:
    """One ``migration.copy`` visit before a copy step; True aborts it.

    The one-visit case of :meth:`FaultInjector.on_migration_copies`.
    Asked only while ``request.completion`` is clear: once the bit is
    set, foreground writes already go to the new DSN and an abort would
    lose them.  :func:`step_channel` retires a completed copy before it
    asks, so a visit past the bit is a pump bug and raises.
    """
    if request.completion:
        raise AssertionError(
            "migration.copy asked about a copy past its completion bit")
    spec = injector._copy_visit(request.lines_done, channel)
    if spec is None:
        return False
    injector._abort_fired(spec, request.lines_done, channel,
                          request.old_dsn, request.new_dsn)
    return True


def retire(engine: MigrationEngine, channel: int, slot: int) -> None:
    """Retire the copy in flight on ``channel`` on its own."""
    engine._inflight[channel] = _NO_SLOT
    engine._retire([(np.array([slot]), np.array([0]), channel)])


def step_all(engine: MigrationEngine, busy_channels: set[int] | None = None,
             lines: int = 1) -> int:
    """One :func:`step_channel` per channel, in channel order."""
    busy = busy_channels or set()
    return sum(step_channel(engine, channel, channel in busy, lines)
               for channel in range(len(engine._queues)))


def drain(engine: MigrationEngine) -> int:
    """Each channel in turn, a whole segment per step, until quiet."""
    for channel, queue in enumerate(engine._queues):
        while engine._inflight[channel] != _NO_SLOT or len(queue):
            step_channel(engine, channel, lines=engine.lines_per_segment)
    return engine.stats.segments_migrated


def drain_migrations(shard: ControllerShard) -> None:
    """The shard's drain, one pump round and one access period per
    step, auditing after every step in which an abort fired."""
    controller = shard.controller
    steps = 0
    while controller.migration.pending_count():
        steps += 1
        if steps > shards.DRAIN_STEP_LIMIT:
            shard.violations.append(
                f"shard {shard.index}: migration drain exceeded "
                f"{shards.DRAIN_STEP_LIMIT} pump steps")
            break
        controller.pump_migrations(shard.clock_ns,
                                   lines=shards.DRAIN_PUMP_LINES)
        shard.clock_ns += shards.ACCESS_PERIOD_NS
        shard._audit_on_abort()


def stepping(shard: ControllerShard) -> ControllerShard:
    """``shard`` with the engine's pump and drain and the shard's drain
    replaced by the loops above."""
    engine = shard.controller.migration
    engine.step_all = types.MethodType(step_all, engine)
    engine.drain = types.MethodType(drain, engine)
    shard.drain_migrations = types.MethodType(drain_migrations, shard)
    return shard
