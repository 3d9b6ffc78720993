"""Server checkpoints: live snapshot, restore identity, and refusals.

``DtlServer.write_checkpoint`` pickles the live object graph (see
docs/CHECKPOINT.md, "Server checkpoints"); ``restore`` either adopts all
of it or — on any refusal — leaves the target server untouched.
"""

import asyncio
import os

import pytest

from repro.checkpoint import (CHECKPOINT_VERSION, Checkpoint,
                              CheckpointError, save_checkpoint, snapshot)
from repro.core.allocator import RankRole
from repro.server import DtlServer, ServerConfig

from tests.server.test_chaos_resume import (REQUESTS, apply, injector_states,
                                            script)


def server_counters(server: DtlServer) -> dict:
    return {name: value
            for name, value in server.metrics.counter_values().items()
            if name.startswith("server.")}


def observable_state(server: DtlServer) -> tuple:
    """What a refused restore must leave exactly as it found it."""
    tenants = {name: (record.shard, record.host_id, sorted(record.vm_ids))
               for name, record in server.tenants.items()}
    return ([shard.fingerprint() for shard in server.shards], tenants,
            server_counters(server), injector_states(server))


def test_undrained_checkpoint_restores_to_the_same_future(tmp_path):
    ops = script()
    cut = len(ops) - REQUESTS // 2
    path = str(tmp_path / "server.ckpt")

    async def scenario():
        vms: dict[str, int] = {}
        original = DtlServer(ServerConfig())
        await original.start(serve_tcp=False)
        await apply(original, ops[:cut], 0, vms)
        # Hostile condition: started, never drained, chaos mid-plan.
        assert all(shard._worker is not None and shard._queue is not None
                   for shard in original.shards)
        assert any(shard.injector.injected_total for shard in original.shards)
        original.write_checkpoint(path)

        restored = DtlServer(ServerConfig())
        checkpoint = restored.restore(path)
        assert checkpoint.kind == "server"
        assert checkpoint.step == original.applied_total
        assert observable_state(restored) == observable_state(original)
        await restored.start(serve_tcp=False)

        tail = await apply(original, ops, cut, dict(vms))
        restored_tail = await apply(restored, ops, cut, dict(vms))
        await original.drain()
        await restored.drain()
        assert restored_tail == tail
        assert observable_state(restored) == observable_state(original)
        assert server_counters(restored)["server.requests"] == len(ops)
        assert not restored.audit_violations()

    asyncio.run(scenario())


def write_good(path: str) -> None:
    """A valid checkpoint of a default-config server with live tenants."""
    async def scenario():
        server = DtlServer(ServerConfig())
        await server.start(serve_tcp=False)
        await apply(server, script()[:10], 0, {})
        server.write_checkpoint(path)
        await server.drain()
    asyncio.run(scenario())


def flip_a_bit(path: str) -> None:
    """Flip one bit in the middle of the file at ``path``."""
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        byte = handle.read(1)[0]
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte ^ 0x10]))


def truncate_half(path: str) -> None:
    """Cut the file at ``path`` to half its length."""
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)


def bit_flipped(path: str) -> None:
    write_good(path)
    flip_a_bit(path)


def truncated(path: str) -> None:
    write_good(path)
    truncate_half(path)


def other_kind(path: str) -> None:
    save_checkpoint(snapshot("chaos", 3, {"level": 1}), path)


def stale_version(path: str) -> None:
    """A file written one format version ago (refused before its kind
    is read)."""
    save_checkpoint(Checkpoint(kind="server", step=0, blob=b"old layout",
                               version=CHECKPOINT_VERSION - 1), path)


def not_a_checkpoint(path: str) -> None:
    """A file of another kind altogether: one protocol request."""
    with open(path, "w") as handle:
        handle.write('{"op": "stats"}\n')


@pytest.mark.parametrize("write_file, target_config, match", [
    (write_good, ServerConfig(seed=1), "structurally different"),
    (write_good, ServerConfig(num_shards=3), "structurally different"),
    (other_kind, ServerConfig(), "not a server state"),
    (stale_version, ServerConfig(),
     f"version {CHECKPOINT_VERSION - 1}, .* {CHECKPOINT_VERSION}"),
    (bit_flipped, ServerConfig(), "integrity|not a checkpoint|corrupt"),
    (truncated, ServerConfig(), "not a checkpoint"),
    (not_a_checkpoint, ServerConfig(), "not a checkpoint"),
], ids=["chaos-seed", "shard-count", "other-kind", "stale-version",
        "bit-flip", "truncated", "not-a-checkpoint"])
def test_refused_restore_leaves_the_server_untouched(tmp_path, write_file,
                                                     target_config, match):
    path = str(tmp_path / "server.ckpt")
    write_file(path)

    async def target_with_state_of_its_own() -> DtlServer:
        server = DtlServer(target_config)
        await server.start(serve_tcp=False)
        await apply(server, script(seed=11)[:8], 0, {})
        await server.drain()
        return server

    target = asyncio.run(target_with_state_of_its_own())
    before = observable_state(target)
    assert before[1] and before[2]["server.requests"] == 8
    with pytest.raises(CheckpointError, match=match):
        target.restore(path)
    assert observable_state(target) == before


def test_look_ahead_tallies_stay_out_of_the_checkpoint(tmp_path):
    """``lookaheads`` / ``lookahead_calls`` depend on arrival timing, so
    they are neither fingerprinted nor pickled: they add no field to
    the blob (the format version is 17 for the translation engine's
    hit-class price table and the event ring's row segments, was 16 for
    the integer-nanosecond clock, 15 for the config fields that became
    constants, 14 for
    the event ring's segments, 13 for the fan-outs' shared run state and
    12 for the migration engine's weak completion callback,
    docs/CHECKPOINT.md, not for them), and a server restored from it
    starts its tallies again."""
    assert CHECKPOINT_VERSION == 17
    path = str(tmp_path / "server.ckpt")
    ops = script()
    accesses = [op for op in ops if op["op"] == "access_batch"]

    async def scenario():
        vms: dict[str, int] = {}
        original = DtlServer(ServerConfig())
        await original.start(serve_tcp=False)
        await apply(original, ops[:len(ops) - len(accesses)], 0, vms)
        quiet = [shard.fingerprint() for shard in original.shards]
        replies = await asyncio.gather(*(
            original.handle_request(dict(op, vm=vms[op["tenant"]], t=2.0))
            for op in accesses[:6]))
        assert all(reply["ok"] for reply in replies)
        assert any(shard.lookaheads for shard in original.shards)
        assert quiet != [shard.fingerprint() for shard in original.shards]
        original.write_checkpoint(path)

        for shard in original.shards:
            assert not {"lookaheads", "lookahead_calls"} \
                & shard.__getstate__().keys()
        restored = DtlServer(ServerConfig())
        restored.restore(path)
        assert observable_state(restored) == observable_state(original)
        assert [(shard.lookaheads, shard.lookahead_calls)
                for shard in restored.shards] == [(0, 0)] * 2
        await restored.start(serve_tcp=False)
        tail = [dict(op, vm=vms[op["tenant"]], t=3.0 + 0.01 * index)
                for index, op in enumerate(accesses[6:12])]
        assert ([await original.handle_request(op) for op in tail]
                == [await restored.handle_request(op) for op in tail])
        await original.drain()
        await restored.drain()
        assert observable_state(restored) == observable_state(original)

    asyncio.run(scenario())


def test_a_fenced_rank_is_in_the_fingerprint():
    """Two shards that differ only in one fenced rank fingerprint apart."""
    one, other = DtlServer(ServerConfig()), DtlServer(ServerConfig())
    assert ([shard.fingerprint() for shard in one.shards]
            == [shard.fingerprint() for shard in other.shards])
    other.shards[0].controller.allocator.set_role([(0, 3)], RankRole.FENCED)
    assert one.shards[0].fingerprint() != other.shards[0].fingerprint()

