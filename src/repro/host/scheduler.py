"""VM scheduler for one server / memory-pool node.

Replays a list of :class:`~repro.host.vm.VmSpec` onto a node with fixed
vCPU and memory capacity, exactly as the paper's Figure 1 methodology
describes: 400 VMs sampled from the Azure distribution are scheduled for
six hours on a 48-vCPU / 384 GB node.  VMs that do not fit at arrival wait
in a FIFO queue until capacity frees (their lifetime starts when they are
admitted).

The scheduler produces:

* a start/stop event stream (consumed by the power-down simulator), and
* a memory/vCPU usage time series sampled at the trace's 5-minute
  granularity (Figure 1).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.host.vm import VmEvent, VmSpec
from repro.units import GIB

FIVE_MINUTES_S = 300.0


@dataclass
class SchedulerConfig:
    """Node capacity (Figure 1: 48 vCPUs, 384 GB)."""

    vcpus: int = 48
    memory_bytes: int = 384 * GIB
    duration_s: float = 6 * 3600.0


@dataclass
class UsageSample:
    """Resource usage at one sample instant."""

    time_s: float
    memory_bytes: int
    vcpus: int
    live_vms: int

    def memory_fraction(self, capacity_bytes: int) -> float:
        """Memory usage as a fraction of node capacity."""
        return self.memory_bytes / capacity_bytes


@dataclass
class ScheduleResult:
    """Everything the scheduler produced for one run."""

    config: SchedulerConfig
    events: list[VmEvent]
    samples: list[UsageSample]
    admitted: int
    rejected: int

    def mean_memory_fraction(self) -> float:
        """Time-averaged memory utilisation (the Figure 1 headline)."""
        if not self.samples:
            return 0.0
        total = sum(sample.memory_bytes for sample in self.samples)
        return total / (len(self.samples) * self.config.memory_bytes)

    def peak_memory_fraction(self) -> float:
        """Peak memory utilisation over the run."""
        if not self.samples:
            return 0.0
        return max(sample.memory_bytes
                   for sample in self.samples) / self.config.memory_bytes


class VmScheduler:
    """FIFO admission scheduler with fixed capacity."""

    def __init__(self, config: SchedulerConfig | None = None):
        self.config = config or SchedulerConfig()

    def run(self, specs: list[VmSpec]) -> ScheduleResult:
        """Schedule ``specs`` over the configured duration."""
        config = self.config
        arrivals = deque(sorted(specs, key=lambda spec: spec.arrival_s))
        pending: deque[VmSpec] = deque()
        # Min-heap of (stop_time, seq, spec) for live VMs.
        live: list[tuple[float, int, VmSpec]] = []
        seq = 0
        used_mem = 0
        used_cpu = 0
        events: list[VmEvent] = []
        samples: list[UsageSample] = []
        admitted = 0
        rejected = 0

        def fits(spec: VmSpec) -> bool:
            return (used_mem + spec.memory_bytes <= config.memory_bytes
                    and used_cpu + spec.vcpus <= config.vcpus)

        def admit(spec: VmSpec, now_s: float) -> None:
            nonlocal used_mem, used_cpu, seq, admitted
            used_mem += spec.memory_bytes
            used_cpu += spec.vcpus
            heapq.heappush(live, (now_s + spec.lifetime_s, seq, spec))
            seq += 1
            admitted += 1
            events.append(VmEvent(time_s=now_s, kind="start", spec=spec))

        def drain_departures(now_s: float) -> None:
            nonlocal used_mem, used_cpu
            while live and live[0][0] <= now_s:
                stop_time, _, spec = heapq.heappop(live)
                used_mem -= spec.memory_bytes
                used_cpu -= spec.vcpus
                events.append(VmEvent(time_s=stop_time, kind="stop",
                                      spec=spec))

        def drain_pending(now_s: float) -> None:
            while pending and fits(pending[0]):
                admit(pending.popleft(), now_s)

        time_s = 0.0
        while time_s <= config.duration_s:
            drain_departures(time_s)
            while arrivals and arrivals[0].arrival_s <= time_s:
                spec = arrivals.popleft()
                if spec.memory_bytes > config.memory_bytes or \
                        spec.vcpus > config.vcpus:
                    rejected += 1
                    continue
                if fits(spec) and not pending:
                    admit(spec, time_s)
                else:
                    pending.append(spec)
            drain_pending(time_s)
            samples.append(UsageSample(
                time_s=time_s, memory_bytes=used_mem, vcpus=used_cpu,
                live_vms=len(live)))
            time_s += FIVE_MINUTES_S

        events.sort()
        return ScheduleResult(config=config, events=events, samples=samples,
                              admitted=admitted, rejected=rejected)


__all__ = [
    "FIVE_MINUTES_S",
    "SchedulerConfig",
    "UsageSample",
    "ScheduleResult",
    "VmScheduler",
]
