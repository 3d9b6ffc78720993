"""Declarative fault plans: what to inject, where, and on which visits.

A :class:`FaultPlan` is a frozen, hashable schedule of
:class:`FaultSpec` entries.  Determinism is the design constraint:
no spec consults a clock or an RNG at fire time.  Instead every spec
counts its own *eligible events* (hook visits that pass its filters) and
fires on pure counter arithmetic::

    fires on eligible event v  iff  start <= v
                                and (stop == 0 or v < stop)
                                and (v - start) % period == 0
                                and (max_fires == 0 or fired < max_fires)

Replaying the same plan over the same workload therefore injects the
same faults at the same points, bit for bit — the property the
determinism suite (``tests/faults/test_determinism.py``) locks in.  It
is also what lets the batch datapath *schedule* a plan instead of
polling it: :meth:`FaultSpec.fire_offsets` answers "which of the next
``n`` events fire" in closed form.

Plans are plain nested frozen dataclasses, so
:func:`repro.exec.hashing.canonical` hashes them with no special
casing; an experiment derives its plan from its config (e.g.
:meth:`ChaosSoakConfig.base_plan`), so the config hash that keys the
executor's cache already covers the plan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.hooks import HookPoint


@dataclass(frozen=True)
class FaultSpec:
    """Base schedule shared by every fault kind.

    Attributes:
        start: First eligible-event index (0-based) that may fire.
        period: Fire every ``period`` eligible events from ``start``.
        stop: Eligible-event index to stop at (exclusive); 0 = never.
        max_fires: Cap on total fires of this spec; 0 = unlimited.
    """

    start: int = 0
    period: int = 1
    stop: int = 0
    max_fires: int = 0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.period < 1:
            raise ConfigurationError(
                f"period must be >= 1, got {self.period}")
        if self.stop and self.stop <= self.start:
            raise ConfigurationError(
                f"stop {self.stop} must exceed start {self.start} (or be 0)")
        if self.max_fires < 0:
            raise ConfigurationError(
                f"max_fires must be >= 0, got {self.max_fires}")

    def matches(self, visit: int, fired: int = 0) -> bool:
        """True when eligible event ``visit`` should fire this fault."""
        if visit < self.start:
            return False
        if self.stop and visit >= self.stop:
            return False
        if self.max_fires and fired >= self.max_fires:
            return False
        return (visit - self.start) % self.period == 0

    def fire_offsets(self, visit: int, fired: int, n: int) -> range:
        """:meth:`matches` in closed form over the next ``n`` events.

        With the eligible-event counter at ``visit`` and ``fired`` fires
        so far, offset ``k`` is in the result iff the scalar loop would
        fire on event ``visit + k`` (``0 <= k < n``) — the batch
        datapath's schedule, no per-event work.
        """
        first = self.start
        if visit > first:
            first += -(-(visit - first) // self.period) * self.period
        end = min(visit + n, self.stop) if self.stop else visit + n
        count = max(0, -(-(end - first) // self.period))
        if self.max_fires:
            count = min(count, max(0, self.max_fires - fired))
        offset = first - visit
        return range(offset, offset + count * self.period, self.period)


@dataclass(frozen=True)
class CxlLinkFault(FaultSpec):
    """CXL.mem link error (bounded retry + backoff) or stall.

    Attributes:
        kind: ``"error"`` — the transaction is replayed ``retries``
            times with exponential backoff before succeeding;
            ``"stall"`` — the link stalls for a fixed ``stall_ns``.
        retries: Replays needed before the transaction succeeds.
        backoff_ns: Initial backoff before the first replay; doubles
            per replay (see :meth:`CxlLinkConfig.replay_latency_ns`).
        stall_ns: Stall duration for ``kind="stall"``.
    """

    kind: str = "error"
    retries: int = 1
    backoff_ns: float = 50.0
    stall_ns: float = 500.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in ("error", "stall"):
            raise ConfigurationError(
                f"CxlLinkFault kind must be 'error' or 'stall', "
                f"got {self.kind!r}")
        if self.retries < 1:
            raise ConfigurationError(
                f"retries must be >= 1, got {self.retries}")


@dataclass(frozen=True)
class EccFault(FaultSpec):
    """DRAM ECC error on one rank (or any rank).

    Attributes:
        channel: Restrict to this channel (-1 = any).
        rank: Restrict to this rank index (-1 = any).
        bits: 1 = correctable single-bit error; >= 2 = detected
            uncorrectable error (accounted, never silently dropped).
    """

    channel: int = -1
    rank: int = -1
    bits: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bits < 1:
            raise ConfigurationError(f"bits must be >= 1, got {self.bits}")

    def applies_to(self, channel: int, rank: int) -> bool:
        """True when an access to ``(channel, rank)`` is eligible."""
        return ((self.channel < 0 or self.channel == channel)
                and (self.rank < 0 or self.rank == rank))

    def eligible_offsets(self, channels: np.ndarray,
                         ranks: np.ndarray) -> np.ndarray | None:
        """Batch :meth:`applies_to`: offsets of the eligible accesses.

        ``None`` means every access (no filter) — the common case, which
        then costs no array work at all.
        """
        if self.channel < 0 and self.rank < 0:
            return None
        eligible = np.ones(len(channels), dtype=bool)
        if self.channel >= 0:
            eligible &= channels == self.channel
        if self.rank >= 0:
            eligible &= ranks == self.rank
        return np.flatnonzero(eligible)


@dataclass(frozen=True)
class MigrationAbortFault(FaultSpec):
    """Abort an in-flight segment copy at a chosen progress counter.

    The abort is injected *before* the copy step, only while the
    request's completion bit is clear — aborting after completion would
    lose foreground writes already redirected to the new DSN, which the
    hardware protocol makes impossible by construction.

    Attributes:
        at_lines_done: Fire when the request's progress counter equals
            this value (-1 = any progress).
        channel: Restrict to one channel (-1 = any).
    """

    #: Bounded by default: an unbounded every-visit abort at progress 0
    #: would starve ``MigrationEngine.drain`` forever (each abort resets
    #: the counter back into the spec's own match window).
    max_fires: int = 16
    at_lines_done: int = -1
    channel: int = -1

    def applies_to(self, lines_done: int, channel: int) -> bool:
        """True when a copy step at this progress/channel is eligible."""
        return ((self.at_lines_done < 0
                 or self.at_lines_done == lines_done)
                and (self.channel < 0 or self.channel == channel))

    def eligible_offsets(self, lines_done: np.ndarray,
                         channels: np.ndarray) -> np.ndarray | None:
        """Batch :meth:`applies_to`: offsets of the eligible copy steps
        (``None``: every one, the unfiltered case)."""
        if self.at_lines_done < 0 and self.channel < 0:
            return None
        eligible = np.ones(len(lines_done), dtype=bool)
        if self.at_lines_done >= 0:
            eligible &= lines_done == self.at_lines_done
        if self.channel >= 0:
            eligible &= channels == self.channel
        return np.flatnonzero(eligible)


@dataclass(frozen=True)
class PowerExitFault(FaultSpec):
    """Delayed or failed MPSM / self-refresh exit.

    Attributes:
        target: ``"mpsm"`` (rank-group reactivation) or ``"sr"``
            (victim-block wake).
        kind: ``"delay"`` — the exit takes ``delay_ns`` longer;
            ``"fail"`` — ``failures`` exit attempts fail before one
            succeeds, each costing ``delay_ns``.
        delay_ns: Extra wake penalty per delayed/failed attempt.
        failures: Failed attempts for ``kind="fail"``.
    """

    target: str = "mpsm"
    kind: str = "delay"
    delay_ns: float = 1000.0
    failures: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target not in ("mpsm", "sr"):
            raise ConfigurationError(
                f"PowerExitFault target must be 'mpsm' or 'sr', "
                f"got {self.target!r}")
        if self.kind not in ("delay", "fail"):
            raise ConfigurationError(
                f"PowerExitFault kind must be 'delay' or 'fail', "
                f"got {self.kind!r}")
        if self.failures < 1:
            raise ConfigurationError(
                f"failures must be >= 1, got {self.failures}")

    @property
    def extra_penalty_ns(self) -> float:
        """Wake-penalty inflation one fire adds."""
        if self.kind == "delay":
            return self.delay_ns
        return self.delay_ns * self.failures


@dataclass(frozen=True)
class SmcCorruptionFault(FaultSpec):
    """Corrupt the SMC entry of the segment being translated.

    The model follows SRAM parity protection: the corrupted entry is
    detected at lookup time and dropped (invalidated), so the next
    access to that segment re-walks the mapping table.  Injected,
    detected, and recovered in one step — never silent.
    """


def hook_point_of(spec: FaultSpec) -> HookPoint:
    """The hook point a spec fires at (by spec type, and target)."""
    if isinstance(spec, CxlLinkFault):
        return HookPoint.CXL_ACCESS
    if isinstance(spec, EccFault):
        return HookPoint.DRAM_ACCESS
    if isinstance(spec, MigrationAbortFault):
        return HookPoint.MIGRATION_COPY
    if isinstance(spec, PowerExitFault):
        return (HookPoint.MPSM_EXIT if spec.target == "mpsm"
                else HookPoint.SR_EXIT)
    if isinstance(spec, SmcCorruptionFault):
        return HookPoint.SMC_LOOKUP
    raise ConfigurationError(
        f"no hook point for fault spec type {type(spec).__name__}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of fault specs.

    The seed does not drive fire decisions (those are pure counter
    arithmetic) — it names the plan variant and feeds workload RNGs in
    experiments that derive their trace from the plan, so one integer
    reproduces a whole chaos run.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()
    name: str = "plan"

    def __post_init__(self) -> None:
        for spec in self.specs:
            hook_point_of(spec)  # every spec must map to a hook

    @property
    def active(self) -> bool:
        """True when the plan schedules at least one fault."""
        return bool(self.specs)

    def by_hook(self) -> dict[HookPoint, tuple[tuple[int, FaultSpec], ...]]:
        """Specs grouped by hook point, keyed to their plan index."""
        grouped: dict[HookPoint, list[tuple[int, FaultSpec]]] = {
            point: [] for point in HookPoint}
        for index, spec in enumerate(self.specs):
            grouped[hook_point_of(spec)].append((index, spec))
        return {point: tuple(entries) for point, entries in grouped.items()}

    def escalated(self, level: int) -> "FaultPlan":
        """A harsher variant: fire periods shrink by ``2**level``.

        Level 0 is the plan itself; each level halves every spec's
        period (floored at 1), so an escalating soak doubles the fault
        rate per level without touching the schedule's phase.
        """
        if level < 0:
            raise ConfigurationError(f"level must be >= 0, got {level}")
        if level == 0:
            return self
        specs = tuple(
            dataclasses.replace(spec,
                                period=max(1, spec.period >> level))
            for spec in self.specs)
        return dataclasses.replace(self, specs=specs,
                                   name=f"{self.name}@L{level}")


__all__ = [
    "FaultSpec",
    "CxlLinkFault",
    "EccFault",
    "MigrationAbortFault",
    "PowerExitFault",
    "SmcCorruptionFault",
    "FaultPlan",
    "hook_point_of",
]
