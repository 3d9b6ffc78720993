"""Where the traced run puts its spans on a ``DtlController``.

One table for every workload: each row is a public method on a layer
object the benchmark built, the span name it reports under (``layer.``
prefix = module name), and whether calls are recorded as spans or only
counted (``light`` — for functions called more than ~10 000 times a
run, and for the scalar access path, which runs once per access under
an active fault plan).
"""

from __future__ import annotations

from repro.dram.power import PowerState

from spans import Tracer

# (attribute path from the controller, method, span name, light[, index
# of the array argument whose length is counted])
_CONTROLLER_SPANS = (
    ("", "access_batch", "controller.access_batch", False, 1),
    ("", "allocate_vm", "controller.allocate_vm", False),
    ("", "deallocate_vm", "controller.deallocate_vm", False),
    ("", "tick", "controller.tick", False),
    ("", "end_window", "controller.end_window", True),
    ("", "pump_migrations", "controller.pump", False),
    ("host_layout", "split_hpa_batch", "addressing.codec", True),
    ("host_layout", "pack_hsn_batch", "addressing.codec", True),
    ("device_layout", "unpack_dsn_batch", "addressing.codec", True),
    ("device_layout", "dpa_of_batch", "addressing.codec", True),
    ("translation", "translate_hsn_batch", "translation.translate_batch",
     False),
    ("translation", "translate_hsn", "translation.translate_scalar", True),
    ("translation", "invalidate", "translation.invalidate", True),
    ("translation.smc", "lookup_batch", "segment_cache.lookup_batch", False,
     0),
    ("translation.smc", "lookup", "segment_cache.lookup", True),
    ("translation.smc", "fill", "segment_cache.fill", True),
    ("translation.smc", "invalidate", "segment_cache.invalidate", True),
    ("tables", "walk_batch", "tables.walk_batch", True, 0),
    ("tables", "walk", "tables.walk", True),
    ("tables", "remap_segment", "tables.remap", True),
    ("tables", "swap_segments", "tables.remap", True),
    ("migration", "on_foreground_write_batch", "migration.write_screen",
     False, 0),
    ("migration", "on_foreground_write", "migration.write_screen_scalar",
     True),
    ("migration", "drain", "migration.drain", False),
    ("migration", "step_all", "migration.step", True),
    ("allocator", "allocate", "allocator.allocate", True),
    ("allocator", "allocate_in_rank", "allocator.allocate", True),
    ("allocator", "reserve_specific", "allocator.allocate", True),
    ("allocator", "free", "allocator.free", True),
    ("allocator", "move_allocation", "allocator.move", True),
    ("self_refresh", "on_access_batch", "self_refresh.on_access_batch",
     False),
    ("self_refresh", "on_access", "self_refresh.on_access", True),
    ("self_refresh", "on_batch", "self_refresh.on_batch", False),
    ("self_refresh", "tick", "self_refresh.tick", False),
    ("self_refresh", "end_window", "self_refresh.end_window", True),
    ("power_down", "maybe_power_down", "power_down.consolidate", False),
    ("power_down", "ensure_capacity", "power_down.ensure_capacity", True),
    ("power_down", "pump", "power_down.pump", True),
    ("device", "state_counts", "dram.power", True),
    ("device", "record_accesses", "dram.record", True),
    ("device.power_model", "background_power", "dram.power", True),
    ("device.power_model", "active_power", "dram.power", True),
    ("trace", "record", "telemetry.record", True),
    ("trace", "record_tail", "telemetry.record", True),
)


def _resolve(obj, path: str):
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def instrument_controller(tracer: Tracer, controller,
                          all_light: bool = False) -> None:
    """Shadow every layer boundary of ``controller`` (see the table).

    ``all_light`` keeps only ``controller.access_batch`` as a recorded
    span — for workloads that make thousands of calls per repetition.
    """
    for path, method, name, light, *sized in _CONTROLLER_SPANS:
        target = _resolve(controller, path)
        if target is None:  # policy disabled on this controller
            continue
        if path == "trace" and not target.enabled:
            continue  # the null trace is the telemetry fast path
        light = light or (all_light and name != "controller.access_batch")
        tracer.shadow(target, method, name, light=light,
                      sized=sized[0] if sized else None)


def group_parks(controller) -> int:
    """Rank groups the power-down policy has parked so far (wakes are in
    the same public list and are not counted)."""
    if controller.power_down is None:
        return 0
    return sum(1 for transition in controller.power_down.transitions
               if transition.new_state is not PowerState.STANDBY)


def counter_layer_counts(totals: dict[str, float],
                         segment_bytes: int) -> dict[str, float]:
    """The per-layer counts every registry-backed controller exposes,
    from its (summed, or differenced) public counter values."""
    moved_bytes = (totals.get("migration.lines_copied", 0) * 64
                   + totals.get("sr.migrated_bytes", 0))
    return {
        "segment_cache.back_invalidations":
            totals.get("smc.back_invalidations", 0),
        "migration.aborts": totals.get("migration.aborts", 0),
        "migration.bytes_copied": moved_bytes,
        "migration.segments_moved": moved_bytes // segment_bytes,
        "self_refresh.sr_entries": totals.get("sr.entries", 0),
        "self_refresh.sr_exits": totals.get("sr.exits", 0),
        "self_refresh.wake_events": totals.get("sr.exits", 0),
    }
