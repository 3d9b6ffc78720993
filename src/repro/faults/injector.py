"""The fault injector: deterministic execution of a :class:`FaultPlan`.

One injector is armed on a :class:`~repro.core.controller.DtlController`
(:meth:`~repro.core.controller.DtlController.arm_faults`) and shared by
every subsystem below it.  Each hook method is called from exactly one
guarded site in the datapath (see
:data:`~repro.faults.hooks.HOOK_CATALOG`); the injector counts eligible
events per spec and fires on the counter arithmetic documented in
:mod:`repro.faults.plan` — no clock, no RNG, so a replay of the same
plan over the same workload is bit-identical.  The three access-path
hooks also come as ``*_batch`` methods that take one vector pass of
``access_batch`` at a time: same counters, same fires, same report as
the per-access method called once per element, with the fires found
in closed form instead of by asking ``n`` times.

Telemetry is **lazy**: no ``faults.*`` metric exists in the registry
until the first fault actually fires.  An armed injector whose plan
never fires (or has no specs) therefore leaves the telemetry snapshot
bit-identical to a run with no injector at all — the determinism
contract the property suite pins down.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.cxl.link import CxlLinkConfig
from repro.faults.hooks import HookPoint
from repro.faults.plan import (CxlLinkFault, EccFault, FaultPlan, FaultSpec,
                               MigrationAbortFault, PowerExitFault,
                               SmcCorruptionFault)
from repro.telemetry import EventKind, EventTrace, MetricsRegistry

#: Buckets for the ``faults.cxl.retries`` histogram (retry counts).
RETRY_BUCKETS = (1.0, 2.0, 4.0, 8.0)


@dataclass
class ReliabilityReport:
    """What a fault campaign did and whether the DTL survived it.

    Attributes:
        plan_name: Name of the executed plan.
        seed: The plan's seed.
        hook_visits: Hook point name -> events the datapath exposed.
        injected: Hook point name -> faults actually fired there.
        detected: Faults the model detected (all of them: injection is
            never silent in this simulator).
        recovered: Faults recovered without data loss.
        ecc_corrected: Single-bit ECC errors corrected in place.
        ecc_uncorrected: Multi-bit ECC errors detected (not corrected).
        cxl_retry_counts: Retries-per-replayed-transaction histogram.
        power_exit_failures: Failed MPSM/SR exit attempts before success.
        checker_audits: Consistency audits run during the campaign.
        checker_violations: Invariant violations those audits found.
    """

    plan_name: str = "plan"
    seed: int = 0
    hook_visits: dict[str, int] = field(default_factory=dict)
    injected: dict[str, int] = field(default_factory=dict)
    detected: int = 0
    recovered: int = 0
    ecc_corrected: int = 0
    ecc_uncorrected: int = 0
    cxl_retry_counts: dict[int, int] = field(default_factory=dict)
    power_exit_failures: int = 0
    checker_audits: int = 0
    checker_violations: list[str] = field(default_factory=list)

    @property
    def injected_total(self) -> int:
        """Total faults fired across all hook points."""
        return sum(self.injected.values())

    @property
    def empty(self) -> bool:
        """True when the campaign fired nothing."""
        return self.injected_total == 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "plan_name": self.plan_name,
            "seed": self.seed,
            "hook_visits": dict(self.hook_visits),
            "injected": dict(self.injected),
            "injected_total": self.injected_total,
            "detected": self.detected,
            "recovered": self.recovered,
            "ecc_corrected": self.ecc_corrected,
            "ecc_uncorrected": self.ecc_uncorrected,
            "cxl_retry_counts": {str(retries): count for retries, count
                                 in sorted(self.cxl_retry_counts.items())},
            "power_exit_failures": self.power_exit_failures,
            "checker_audits": self.checker_audits,
            "checker_violations": list(self.checker_violations),
        }

    @classmethod
    def combine(cls, reports: list["ReliabilityReport"],
                ) -> "ReliabilityReport":
        """Aggregate per-level reports into one campaign report."""
        total = cls(plan_name=reports[0].plan_name if reports else "plan",
                    seed=reports[0].seed if reports else 0)
        for report in reports:
            for name, count in report.hook_visits.items():
                total.hook_visits[name] = (total.hook_visits.get(name, 0)
                                           + count)
            for name, count in report.injected.items():
                total.injected[name] = total.injected.get(name, 0) + count
            for retries, count in report.cxl_retry_counts.items():
                total.cxl_retry_counts[retries] = (
                    total.cxl_retry_counts.get(retries, 0) + count)
            total.detected += report.detected
            total.recovered += report.recovered
            total.ecc_corrected += report.ecc_corrected
            total.ecc_uncorrected += report.ecc_uncorrected
            total.power_exit_failures += report.power_exit_failures
            total.checker_audits += report.checker_audits
            total.checker_violations.extend(report.checker_violations)
        return total


class FaultInjector:
    """Executes one :class:`FaultPlan` against the armed datapath."""

    def __init__(self, plan: FaultPlan,
                 registry: MetricsRegistry | None = None,
                 trace: EventTrace | None = None,
                 link: CxlLinkConfig | None = None):
        self.plan = plan
        self._registry = registry
        self._trace = trace
        self._link = link if link is not None else CxlLinkConfig()
        self._by_hook = plan.by_hook()
        # Per-hook-point visit counters (events the datapath exposed) and
        # per-spec eligible-event / fire counters.  All plain integers:
        # this is the whole determinism story.
        self._visits = {point: 0 for point in HookPoint}
        self._spec_visits = [0] * len(plan.specs)
        self._spec_fires = [0] * len(plan.specs)
        self._injected = {point: 0 for point in HookPoint}
        self.detected = 0
        self.recovered = 0
        self.ecc_corrected = 0
        self.ecc_uncorrected = 0
        self.cxl_retry_counts: dict[int, int] = {}
        self.power_exit_failures = 0

    @property
    def counts_sr_exits(self) -> bool:
        """True when the plan has an ``sr.exit`` spec.

        Such a spec counts self-refresh wakes across *all* channels, so
        the wake order between channels becomes observable.
        """
        return bool(self._by_hook[HookPoint.SR_EXIT])

    def visits(self, point: HookPoint) -> int:
        """Events the datapath exposed at ``point`` so far."""
        return self._visits[point]

    def injected(self, point: HookPoint) -> int:
        """Faults fired at ``point`` so far."""
        return self._injected[point]

    @property
    def injected_total(self) -> int:
        """Total faults fired so far."""
        return sum(self._injected.values())

    # -- internals ---------------------------------------------------------------

    def _eligible(self, index: int, spec: FaultSpec) -> bool:
        """Advance spec ``index``'s eligible-event counter; True to fire."""
        visit = self._spec_visits[index]
        self._spec_visits[index] = visit + 1
        if not spec.matches(visit, self._spec_fires[index]):
            return False
        self._spec_fires[index] += 1
        return True

    def _fired(self, point: HookPoint, spec: FaultSpec,
               **data: Any) -> None:
        """Account one injection.  Telemetry is created lazily here so an
        armed-but-silent injector leaves the registry untouched."""
        self._injected[point] += 1
        if self._registry is not None:
            self._registry.counter("faults.injected").inc()
            self._registry.counter(f"faults.injected.{point.value}").inc()
        if self._trace is not None:
            self._trace.record(EventKind.FAULT_INJECTED, point=point.value,
                               fault=type(spec).__name__, **data)

    def _batch_fires(self, point: HookPoint, n: int, eligible=None,
                     ) -> list[tuple[int, int, FaultSpec]]:
        """Advance ``point`` by ``n`` visits with no per-visit work.

        Returns ``(offset, plan index, spec)`` for every fire among
        those visits, sorted the way the scalar loop takes them (by
        access, then plan order), and leaves every visit/fire counter
        where ``n`` scalar hook calls would.  ``eligible(spec)`` names
        the offsets a filtered spec counts as its eligible events
        (``None``: all of them).
        """
        self._visits[point] += n
        fires: list[tuple[int, int, FaultSpec]] = []
        for index, spec in self._by_hook[point]:
            where = eligible(spec) if eligible is not None else None
            events = n if where is None else len(where)
            offsets = spec.fire_offsets(self._spec_visits[index],
                                        self._spec_fires[index], events)
            self._spec_visits[index] += events
            self._spec_fires[index] += len(offsets)
            fires.extend((k if where is None else int(where[k]), index, spec)
                         for k in offsets)
        fires.sort()  # (offset, index) is unique: specs never compare
        return fires

    # -- hook methods (one per catalog entry) -------------------------------------

    def on_cxl_access(self, now_ns: int = 0) -> float:
        """CXL link fault check for one transaction; returns extra ns."""
        self._visits[HookPoint.CXL_ACCESS] += 1
        extra = 0.0
        for index, spec in self._by_hook[HookPoint.CXL_ACCESS]:
            if self._eligible(index, spec):
                extra += self._cxl_fire(spec, now_ns)
        return extra

    def on_cxl_access_batch(self, n: int, now_ns: int = 0) -> np.ndarray:
        """:meth:`on_cxl_access` for ``n`` transactions; extra ns each."""
        fault_ns = np.zeros(n, dtype=np.float64)
        for offset, _, spec in self._batch_fires(HookPoint.CXL_ACCESS, n):
            fault_ns[offset] += self._cxl_fire(spec, now_ns)
        return fault_ns

    def _cxl_fire(self, spec: CxlLinkFault, now_ns: int) -> float:
        """Account one fired link fault; returns the latency it adds."""
        if spec.kind == "stall":
            extra = spec.stall_ns
        else:
            extra = self._link.replay_latency_ns(spec.retries,
                                                 spec.backoff_ns)
            self.cxl_retry_counts[spec.retries] = (
                self.cxl_retry_counts.get(spec.retries, 0) + 1)
            if self._registry is not None:
                self._registry.histogram(
                    "faults.cxl.retries",
                    bounds=RETRY_BUCKETS).observe(float(spec.retries))
        self.detected += 1
        self.recovered += 1  # bounded retry always succeeds here
        self._fired(HookPoint.CXL_ACCESS, spec, time=now_ns,
                    fault_kind=spec.kind, extra_ns=extra)
        return extra

    def on_smc_lookup(self, hsn: int, translation) -> bool:
        """SMC corruption check after translating ``hsn``.

        On fire, the cached entry is dropped (parity detected the
        corruption), forcing a table re-walk on the segment's next
        access.  Returns True when a corruption was injected.
        """
        self._visits[HookPoint.SMC_LOOKUP] += 1
        corrupted = False
        for index, spec in self._by_hook[HookPoint.SMC_LOOKUP]:
            if self._eligible(index, spec):
                self._smc_fire(spec, hsn, translation)
                corrupted = True
        return corrupted

    def on_smc_lookup_batch(self, hsns: np.ndarray, translation,
                            ) -> list[tuple[int, Callable[[], None]]]:
        """:meth:`on_smc_lookup` for every lookup of ``hsns``, asked once
        before they are translated.

        Corruption is the one access-path fault that changes *later*
        translations, so nothing is dropped here: the counters move as
        ``len(hsns)`` scalar calls would, and each fire comes back as
        ``(offset, drop)``, in the order the scalar loop fires them.
        The translation runs ``drop()`` right after the lookup at
        ``offset`` (``SegmentMappingCache.lookup_batch``'s ``fires``).
        """
        return [(offset, partial(self._smc_fire, spec, int(hsns[offset]),
                                 translation))
                for offset, _, spec in self._batch_fires(
                    HookPoint.SMC_LOOKUP, len(hsns))]

    def _smc_fire(self, spec: FaultSpec, hsn: int, translation) -> None:
        """Account one fired corruption: drop ``hsn``'s cached entry."""
        translation.invalidate(hsn)
        self.detected += 1
        self.recovered += 1  # re-walk restores the true mapping
        self._fired(HookPoint.SMC_LOOKUP, spec, hsn=hsn)

    def on_dram_access(self, channel: int, rank: int, device,
                       now_ns: int = 0) -> None:
        """ECC fault check for one access to ``(channel, rank)``."""
        self._visits[HookPoint.DRAM_ACCESS] += 1
        for index, spec in self._by_hook[HookPoint.DRAM_ACCESS]:
            assert isinstance(spec, EccFault)
            if (spec.applies_to(channel, rank)
                    and self._eligible(index, spec)):
                self._ecc_fire(spec, channel, rank, device, now_ns)

    def on_dram_access_batch(self, channels: np.ndarray, ranks: np.ndarray,
                             device, now_ns: int = 0) -> None:
        """:meth:`on_dram_access` over decoded ``channels``/``ranks``.

        A channel/rank-filtered spec counts only the accesses it
        applies to, as in the scalar loop; errors are recorded in
        access order.
        """
        fires = self._batch_fires(
            HookPoint.DRAM_ACCESS, len(channels),
            lambda spec: spec.eligible_offsets(channels, ranks))
        for offset, _, spec in fires:
            self._ecc_fire(spec, int(channels[offset]), int(ranks[offset]),
                           device, now_ns)

    def _ecc_fire(self, spec: EccFault, channel: int, rank: int, device,
                  now_ns: int) -> None:
        """Account one fired ECC error against ``(channel, rank)``."""
        corrected = device.record_ecc_error((channel, rank),
                                            bits=spec.bits, now_ns=now_ns)
        self.detected += 1
        if corrected:
            self.ecc_corrected += 1
            self.recovered += 1
        else:
            self.ecc_uncorrected += 1
        self._fired(HookPoint.DRAM_ACCESS, spec, channel=channel,
                    rank=rank, bits=spec.bits)

    def on_migration_copies(self, lines_done: np.ndarray,
                            channels: np.ndarray, rounds: np.ndarray,
                            ) -> list[tuple[int, Callable[[int, int], None]]]:
        """The ``migration.copy`` abort check over the copy steps of
        consecutive pump rounds: one visit per step, each with its
        request's progress and channel, in (round, channel) order
        (``rounds`` is non-decreasing).

        Counts the visits up to the end of the first round in which an
        abort fires (all of them when none does), exactly as that many
        one-step visits would, and returns that round's fires as ``(offset,
        fire)``.  The caller runs ``fire(old_dsn, new_dsn)`` when it
        aborts the copy at ``offset``.  Before the first fire no spec
        has fired, so each counts its eligible visits in closed form;
        the firing round is asked visit by visit, because a fire ends
        its visit for the specs after it.
        """
        point = HookPoint.MIGRATION_COPY
        count = len(lines_done)
        first = count
        eligible = []
        for index, spec in self._by_hook[point]:
            where = spec.eligible_offsets(lines_done, channels)
            offsets = spec.fire_offsets(
                self._spec_visits[index], self._spec_fires[index],
                count if where is None else len(where))
            if offsets:
                first = min(first, offsets[0] if where is None
                            else where.item(offsets[0]))
            eligible.append(where)
        self._visits[point] += first
        for (index, _), where in zip(self._by_hook[point], eligible):
            self._spec_visits[index] += (
                first if where is None
                else int(np.searchsorted(where, first)))
        if first == count:
            return []
        fires = []
        end = int(np.searchsorted(rounds, rounds[first], side="right"))
        for offset in range(first, end):
            done, channel = lines_done.item(offset), channels.item(offset)
            spec = self._copy_visit(done, channel)
            if spec is not None:
                fires.append((offset, partial(self._abort_fired, spec, done,
                                              channel)))
        return fires

    def _copy_visit(self, lines_done: int, channel: int,
                    ) -> MigrationAbortFault | None:
        """One ``migration.copy`` visit: the spec that fires, if any."""
        self._visits[HookPoint.MIGRATION_COPY] += 1
        for index, spec in self._by_hook[HookPoint.MIGRATION_COPY]:
            assert isinstance(spec, MigrationAbortFault)
            if (spec.applies_to(lines_done, channel)
                    and self._eligible(index, spec)):
                return spec
        return None

    def _abort_fired(self, spec: MigrationAbortFault, lines_done: int,
                     channel: int, old_dsn: int, new_dsn: int) -> None:
        """Account one injected copy abort."""
        self.detected += 1
        self.recovered += 1  # the engine retries from line 0
        self._fired(HookPoint.MIGRATION_COPY, spec, old_dsn=old_dsn,
                    new_dsn=new_dsn, lines_done=lines_done, channel=channel)

    def on_power_exit(self, target: str, penalty_ns: float = 0.0) -> float:
        """Power-exit fault check; returns extra wake penalty (ns)."""
        point = (HookPoint.MPSM_EXIT if target == "mpsm"
                 else HookPoint.SR_EXIT)
        self._visits[point] += 1
        extra = 0.0
        for index, spec in self._by_hook[point]:
            if not self._eligible(index, spec):
                continue
            assert isinstance(spec, PowerExitFault)
            extra += spec.extra_penalty_ns
            if spec.kind == "fail":
                self.power_exit_failures += spec.failures
            self.detected += 1
            self.recovered += 1  # the exit eventually succeeds
            self._fired(point, spec, fault_kind=spec.kind,
                        base_penalty_ns=penalty_ns,
                        extra_ns=spec.extra_penalty_ns)
        return extra

    # -- reporting ---------------------------------------------------------------

    def report(self) -> ReliabilityReport:
        """Snapshot this injector's campaign as a reliability report."""
        return ReliabilityReport(
            plan_name=self.plan.name,
            seed=self.plan.seed,
            hook_visits={point.value: count
                         for point, count in self._visits.items() if count},
            injected={point.value: count
                      for point, count in self._injected.items() if count},
            detected=self.detected,
            recovered=self.recovered,
            ecc_corrected=self.ecc_corrected,
            ecc_uncorrected=self.ecc_uncorrected,
            cxl_retry_counts=dict(self.cxl_retry_counts),
            power_exit_failures=self.power_exit_failures)


__all__ = ["RETRY_BUCKETS", "ReliabilityReport", "FaultInjector"]
