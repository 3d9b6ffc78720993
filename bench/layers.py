"""Metric definitions: the one list ``BENCHMARK.json`` mirrors.

``END_TO_END`` metrics are measured with tracing off and are printed for
every workload.  ``PER_LAYER`` metrics come from the traced run; a layer a
workload never enters reports 0.  Times and counts are **per
repetition** (a repetition is a fixed amount of work), so a run that fits
more repetitions reports the same numbers.
"""

from __future__ import annotations

from spans import Tracer

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("model_cost", "ns_or_pct", "lower", 0.06),
)

# (name, unit, better)
PER_LAYER = (
    ("controller.access_batch_s", "s", "lower"),
    ("controller.calls", "count", "lower"),
    ("controller.accesses", "count", "higher"),
    ("controller.us_per_call", "us", "lower"),
    ("controller.unattributed_fraction", "ratio", "lower"),
    ("controller.scalar_replay_share", "ratio", "lower"),
    ("controller.tick_self_s", "s", "lower"),
    ("controller.pump_self_s", "s", "lower"),
    ("controller.allocate_vm_s", "s", "lower"),
    ("controller.allocate_vm_calls", "count", "lower"),
    ("controller.deallocate_vm_s", "s", "lower"),
    ("controller.deallocate_vm_calls", "count", "lower"),
    ("addressing.codec_self_s", "s", "lower"),
    ("addressing.calls", "count", "lower"),
    ("translation.self_s", "s", "lower"),
    ("translation.sim_mean_ns", "ns", "lower"),
    ("segment_cache.lookup_self_s", "s", "lower"),
    ("segment_cache.lookup_calls", "count", "lower"),
    ("segment_cache.distinct_hsns", "count", "lower"),
    ("segment_cache.l1_hit_ratio", "ratio", "higher"),
    ("segment_cache.l2_hit_ratio", "ratio", "higher"),
    ("segment_cache.fills", "count", "lower"),
    ("segment_cache.back_invalidations", "count", "lower"),
    ("segment_cache.invalidate_self_s", "s", "lower"),
    ("segment_cache.invalidations", "count", "lower"),
    ("tables.walk_self_s", "s", "lower"),
    ("tables.walk_calls", "count", "lower"),
    ("tables.walked_hsns", "count", "lower"),
    ("tables.remap_self_s", "s", "lower"),
    ("tables.remaps", "count", "lower"),
    ("migration.write_screen_self_s", "s", "lower"),
    ("migration.screened_writes", "count", "lower"),
    ("migration.redirected_writes", "count", "lower"),
    ("migration.aborts", "count", "lower"),
    ("migration.drain_self_s", "s", "lower"),
    ("migration.segments_moved", "count", "lower"),
    ("migration.bytes_copied", "bytes", "lower"),
    ("self_refresh.on_access_self_s", "s", "lower"),
    ("self_refresh.on_batch_self_s", "s", "lower"),
    ("self_refresh.tick_self_s", "s", "lower"),
    ("self_refresh.calls", "count", "lower"),
    ("self_refresh.wake_events", "count", "lower"),
    ("self_refresh.sr_entries", "count", "higher"),
    ("self_refresh.sr_exits", "count", "lower"),
    ("power_down.consolidate_self_s", "s", "lower"),
    ("power_down.attempts", "count", "lower"),
    ("power_down.transitions", "count", "higher"),
    ("power_down.success_ratio", "ratio", "higher"),
    ("allocator.self_s", "s", "lower"),
    ("allocator.calls", "count", "lower"),
    ("dram.power_self_s", "s", "lower"),
    ("dram.intervals", "count", "lower"),
    ("sim.advance_self_s", "s", "lower"),
    ("sim.energy_savings_pct", "%", "higher"),
    ("sim.paper_error_pp", "pp", "lower"),
    ("telemetry.observe_self_s", "s", "lower"),
    ("protocol.encode_self_s", "s", "lower"),
    ("protocol.decode_self_s", "s", "lower"),
    ("protocol.bytes_in", "bytes", "lower"),
    ("protocol.bytes_out", "bytes", "lower"),
    ("server.handle_self_s", "s", "lower"),
    ("server.requests", "count", "higher"),
    ("server.rejected", "count", "lower"),
    ("server.internal_errors", "count", "lower"),
    ("admission.admit_self_s", "s", "lower"),
    ("admission.rejections", "count", "lower"),
    ("shards.queue_wait_s", "s", "lower"),
    ("shards.queue_depth_mean", "count", "lower"),
    ("shards.apply_self_s", "s", "lower"),
    ("shards.applied", "count", "higher"),
    ("shards.accesses_per_apply", "count", "higher"),
    ("checker.audit_self_s", "s", "lower"),
    ("checker.audits", "count", "lower"),
    ("checker.violations", "count", "lower"),
    ("faults.injected", "count", "lower"),
    ("checkpoint.server_save_s", "s", "lower"),
    ("checkpoint.server_restore_s", "s", "lower"),
    ("checkpoint.server_bytes", "bytes", "lower"),
    ("checkpoint.sim_snapshot_s", "s", "lower"),
    ("checkpoint.sim_restore_s", "s", "lower"),
    ("checkpoint.sim_bytes", "bytes", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("trace.root_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_fraction", "ratio", "lower"),
)

#: Span names whose self time each ``*_self_s`` metric sums.
_SELF_TIME = {
    "controller.tick_self_s": ("controller.tick", "controller.end_window"),
    "controller.pump_self_s": ("controller.pump",),
    "addressing.codec_self_s": ("addressing.codec",),
    "translation.self_s": ("translation.translate_batch",
                           "translation.translate_scalar",
                           "translation.invalidate"),
    "segment_cache.lookup_self_s": ("segment_cache.lookup_batch",
                                    "segment_cache.lookup",
                                    "segment_cache.fill"),
    "segment_cache.invalidate_self_s": ("segment_cache.invalidate",),
    "tables.walk_self_s": ("tables.walk_batch", "tables.walk"),
    "tables.remap_self_s": ("tables.remap",),
    "migration.write_screen_self_s": ("migration.write_screen",
                                      "migration.write_screen_scalar"),
    "migration.drain_self_s": ("migration.drain", "migration.step"),
    "self_refresh.on_access_self_s": ("self_refresh.on_access_batch",
                                      "self_refresh.on_access"),
    "self_refresh.on_batch_self_s": ("self_refresh.on_batch",),
    "self_refresh.tick_self_s": ("self_refresh.tick",
                                 "self_refresh.end_window"),
    "power_down.consolidate_self_s": ("power_down.consolidate",
                                      "power_down.ensure_capacity",
                                      "power_down.pump"),
    "allocator.self_s": ("allocator.allocate", "allocator.free",
                         "allocator.move"),
    "dram.power_self_s": ("dram.power", "dram.interval", "dram.record"),
    "sim.advance_self_s": ("sim.advance",),
    "telemetry.observe_self_s": ("telemetry.record",),
    "protocol.encode_self_s": ("protocol.encode",),
    "protocol.decode_self_s": ("protocol.decode",),
    "server.handle_self_s": ("server.handle",),
    "admission.admit_self_s": ("admission.admit",),
    "shards.apply_self_s": ("shards.apply", "shards.submit"),
    "checker.audit_self_s": ("checker.audit",),
}

#: Span names whose call count each count metric sums.
_CALLS = {
    "controller.calls": ("controller.access_batch",),
    "controller.allocate_vm_calls": ("controller.allocate_vm",),
    "controller.deallocate_vm_calls": ("controller.deallocate_vm",),
    "addressing.calls": ("addressing.codec",),
    "segment_cache.lookup_calls": ("segment_cache.lookup_batch",
                                   "segment_cache.lookup"),
    "tables.walk_calls": ("tables.walk_batch", "tables.walk"),
    "tables.remaps": ("tables.remap",),
    "segment_cache.invalidations": ("segment_cache.invalidate",),
    "self_refresh.calls": ("self_refresh.on_access_batch",
                           "self_refresh.on_access",
                           "self_refresh.on_batch", "self_refresh.tick"),
    "allocator.calls": ("allocator.allocate", "allocator.free",
                        "allocator.move"),
    "dram.intervals": ("dram.interval",),
}


def queue_wait_s(tracer: Tracer) -> float:
    """Mean time a submitted operation spent queued behind other
    tenants' work: ``shard.submit`` latency minus its own apply span."""
    applied: dict[int, float] = {}
    waits = []
    for _, _, name, op, start, end, busy in tracer.spans:
        if name == "shards.apply":
            applied[op] = applied.get(op, 0.0) + busy
    for _, _, name, op, start, end, busy in tracer.spans:
        if name == "shards.submit":
            waits.append(max(0.0, (end - start) - applied.pop(op, 0.0)))
    return sum(waits) / len(waits) if waits else 0.0


def layer_metrics(tracer: Tracer, reps: int, root_name: str,
                  counts: dict[str, float]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric for one traced run.

    ``counts`` holds the metrics the workload read from public stats and
    results over its first traced repetition; everything timed comes
    from ``tracer`` and is divided by the ``reps`` it covered.
    """
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, spans in _SELF_TIME.items():
        values[name] = tracer.self_s(*spans) / reps
    for name, spans in _CALLS.items():
        values[name] = sum(tracer.calls(span) for span in spans) / reps

    batch = "controller.access_batch"
    busy = tracer.busy_s(batch)
    calls = tracer.calls(batch)
    accesses = tracer.items(batch)
    values["controller.access_batch_s"] = busy / reps
    values["controller.accesses"] = accesses / reps
    if calls:
        values["controller.us_per_call"] = busy / calls * 1e6
        values["controller.unattributed_fraction"] = \
            tracer.self_s(batch) / busy
        values["controller.scalar_replay_share"] = min(
            1.0, tracer.calls("translation.translate_scalar") / accesses)
    for name in ("allocate_vm", "deallocate_vm"):
        values[f"controller.{name}_s"] = \
            tracer.busy_s(f"controller.{name}") / reps
    values["tables.walked_hsns"] = (tracer.items("tables.walk_batch")
                                    + tracer.calls("tables.walk")) / reps
    values["migration.screened_writes"] = (
        tracer.items("migration.write_screen")
        + tracer.calls("migration.write_screen_scalar")) / reps
    applies = tracer.calls("shards.apply")
    if applies:
        values["shards.accesses_per_apply"] = \
            tracer.items("shards.apply") / max(1, calls)
    values["shards.queue_wait_s"] = queue_wait_s(tracer)

    root = tracer.busy_s(root_name)
    values["trace.root_s"] = root / reps
    values["trace.unattributed_s"] = tracer.self_s(root_name) / reps
    values["trace.spans"] = len(tracer.spans) / reps
    values.update(counts)
    attempts = tracer.calls("power_down.consolidate") / reps
    values["power_down.attempts"] = attempts
    if attempts:
        values["power_down.success_ratio"] = min(
            1.0, values["power_down.transitions"] / attempts)
    return values


def closure_error(tracer: Tracer, root_name: str) -> float:
    """|sum of all self times - root busy time| / root busy time.

    Every span adds its busy time to its parent, so this is zero up to
    float rounding unless a shadow failed to unwind the frame stack.
    """
    root = tracer.busy_s(root_name)
    total = sum(entry.self_s for entry in tracer.totals.values())
    return abs(total - root) / root if root else 0.0
