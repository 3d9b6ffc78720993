"""Result records: serialisation and table rendering for experiments.

The simulators return rich dataclasses; this module flattens them into
plain dictionaries for JSON output and renders aligned text/markdown
tables for reports and the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.sim.powerdown_sim import PowerDownResult
from repro.sim.selfrefresh_sim import SelfRefreshResult


@dataclass
class ExperimentRecord:
    """One experiment's identity, its flattened metrics, and the paper's
    value for each metric it reports one for.

    Every ``paper`` key names a key of ``metrics``: a number where the
    paper gives one, a string where it only annotates ("mixed", "<0.5").
    This is the only place a paper reference value is written down; the
    CLI's :func:`render_record` and ``--output`` both read it from here.
    A record whose metrics carry ``ok: False`` fails its command.
    """

    experiment: str
    metrics: dict[str, Any] = field(default_factory=dict)
    paper: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {"experiment": self.experiment, "metrics": self.metrics,
                "paper": self.paper}


def flatten_powerdown(result: PowerDownResult) -> dict[str, Any]:
    """Flatten a power-down simulation result into plain metrics."""
    return {
        "mean_active_ranks_per_channel": result.mean_active_ranks,
        "execution_time_factor": result.execution_time_factor,
        "background_energy_rsu_s": result.energy.background_j,
        "active_energy_rsu_s": result.energy.active_j,
        "migration_energy_rsu_s": result.energy.migration_j,
        "total_energy_rsu_s": result.total_energy,
        "migrated_bytes": result.migrated_bytes,
        "migration_time_s": result.migration_time_s,
        "power_transitions": result.power_transitions,
        "intervals": len(result.intervals),
        "smc_l1_hit_ratio": result.telemetry.get("gauges", {}).get(
            "smc.l1.hit_ratio"),
        "segments_migrated": result.telemetry.get("counters", {}).get(
            "migration.segments_migrated"),
    }


def flatten_telemetry(telemetry: dict[str, Any],
                      prefix: str = "") -> dict[str, Any]:
    """Flatten a telemetry snapshot dict into plain scalar metrics.

    Takes the output of ``Snapshot.to_dict()`` (or the ``telemetry``
    field of a :class:`PowerDownResult`) and merges its counters and
    gauges into one flat namespace; histograms contribute their count
    and mean, events get an ``event.`` prefix.
    """
    flat: dict[str, Any] = {}
    for name, value in telemetry.get("counters", {}).items():
        flat[f"{prefix}{name}"] = value
    for name, value in telemetry.get("gauges", {}).items():
        flat[f"{prefix}{name}"] = value
    for name, hist in telemetry.get("histograms", {}).items():
        flat[f"{prefix}{name}.count"] = hist.get("count", 0)
        flat[f"{prefix}{name}.mean"] = hist.get("mean", 0.0)
    for kind, count in telemetry.get("events", {}).items():
        flat[f"{prefix}event.{kind}"] = count
    return flat


def flatten_selfrefresh(result: SelfRefreshResult) -> dict[str, Any]:
    """Flatten a self-refresh simulation result into plain metrics."""
    return {
        "active_ranks_per_channel": result.active_ranks_per_channel,
        "stable_savings": result.stable_savings,
        "mean_savings": result.mean_savings,
        "warmup_s": (None if result.warmup_s == float("inf")
                     else result.warmup_s),
        "ever_stable": result.ever_stable,
        "sr_entries": result.sr_entries,
        "sr_exits": result.sr_exits,
        "migrated_bytes": result.migrated_bytes,
        "baseline_power_rsu": result.baseline_power,
        "exit_penalty_ns": result.exit_penalty_ns,
    }


def flatten_tournament(result) -> dict[str, Any]:
    """Flatten a policy-tournament result into plain metrics.

    One ``<policy>.<workload>.*`` triple per cell plus per-policy means
    and the Pareto front (annotated directly in
    :class:`~repro.sim.tournament.TournamentResult`, not re-derived).
    """
    flat: dict[str, Any] = {
        "policies": list(result.config.policies),
        "cells": len(result.cells),
        "pareto": [(cell.policy, cell.workload)
                   for cell in result.pareto_front()],
        "failed_cells": [list(failure) for failure in result.failures],
        "ok": not result.failures,
    }
    for cell in result.cells:
        prefix = f"{cell.policy}.{cell.workload}"
        flat[f"{prefix}.savings"] = cell.savings
        flat[f"{prefix}.overhead"] = cell.overhead
        flat[f"{prefix}.sr_entries"] = cell.sr_entries
        flat[f"{prefix}.migrated_bytes"] = cell.migrated_bytes
    for policy, means in result.policy_means().items():
        flat[f"{policy}.mean_savings"] = means[0]
        flat[f"{policy}.mean_overhead"] = means[1]
    return flat


def save_records(records: list[ExperimentRecord], path: str | Path) -> Path:
    """Write experiment records as a JSON document; returns the path."""
    path = Path(path)
    path.write_text(json.dumps([record.to_dict() for record in records],
                               indent=2, sort_keys=True))
    return path


def load_records(path: str | Path) -> list[ExperimentRecord]:
    """Read experiment records back from :func:`save_records` output."""
    raw = json.loads(Path(path).read_text())
    return [ExperimentRecord(experiment=item["experiment"],
                             metrics=item.get("metrics", {}),
                             paper=item.get("paper", {}))
            for item in raw]


def render_table(rows: list[tuple], header: tuple = (),
                 markdown: bool = False) -> str:
    """Render rows as an aligned text table (or a markdown table)."""
    cells = [tuple(str(cell) for cell in row) for row in rows]
    if header:
        cells.insert(0, tuple(str(cell) for cell in header))
    if not cells:
        return ""
    columns = max(len(row) for row in cells)
    cells = [row + ("",) * (columns - len(row)) for row in cells]
    widths = [max(len(row[index]) for row in cells)
              for index in range(columns)]
    lines = []
    for position, row in enumerate(cells):
        if markdown:
            line = "| " + " | ".join(
                cell.ljust(width) for cell, width in zip(row, widths)) + " |"
        else:
            line = "  ".join(cell.rjust(width)
                             for cell, width in zip(row, widths))
        lines.append(line)
        if markdown and header and position == 0:
            lines.append("|" + "|".join("-" * (width + 2)
                                        for width in widths) + "|")
    return "\n".join(lines)


def render_record(record: ExperimentRecord, title: str | None = None) -> str:
    """One record as a titled ``metric | measured | paper`` table.

    A dict-valued metric (the Table 5/6 reports) contributes one
    ``metric.key`` row per entry.
    """
    def cell(value: Any) -> str:
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    def row(key: str, value: Any) -> tuple:
        return (key.replace("_", " "), cell(value),
                cell(record.paper.get(key, "")))

    rows: list[tuple] = []
    for key, value in record.metrics.items():
        if isinstance(value, dict):
            rows.extend(row(f"{key}.{name}", leaf)
                        for name, leaf in value.items())
        else:
            rows.append(row(key, value))
    return (f"\n=== {title or record.experiment} ===\n"
            + render_table(rows, header=("metric", "measured", "paper")))


__all__ = [
    "ExperimentRecord",
    "flatten_powerdown",
    "flatten_selfrefresh",
    "flatten_telemetry",
    "flatten_tournament",
    "save_records",
    "load_records",
    "render_table",
    "render_record",
]
