"""The three ``DtlController.access_batch`` workloads.

All three drive one warmed controller with pre-built HPA/write arrays
(zipf-popular segments over four allocation units) on the telemetry fast
path (null metrics, disabled event trace):

* ``datapath_hot``   — both power policies on, every channel profiling,
  three migrations in flight, 30 % writes, zipf 2.0, 200 000-access calls;
* ``datapath_cold``  — policies off, zipf 1.5 (thousands of distinct
  segments, far more than the SMC holds), 200 000-access calls;
* ``datapath_sliver`` — the hot trace and state in 128-access calls.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.checker import ConsistencyChecker
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.errors import PerformanceWarning
from repro.telemetry import EventTrace, MetricsRegistry

from common import Rep, Workload
from instrument import instrument_controller

NUM_AUS = 4
WRITE_FRACTION = 0.3
MIGRATIONS_IN_FLIGHT = 3
#: Scalar accesses that seed the window counts before victim selection
#: (an all-zero window would pick the rank holding all the traffic).
PROFILING_WARMUP = 2_000
#: Accesses of the first call replayed through scalar ``access`` on a
#: twin controller by the output check.
CHECK_PREFIX = 2_000
#: Simulated time of every call; constant so no channel leaves PROFILING.
NOW_NS = 1_000.0


@dataclass
class DatapathSystem:
    controller: DtlController
    hpas: np.ndarray     # (pool, call) HPA matrix
    writes: np.ndarray   # same shape, bool
    generate_s: float


class DatapathWorkload(Workload):
    work_unit = "accesses"
    model_unit = "ns"  # simulated mean translation latency per access

    #: (policies on, zipf exponent, accesses per call, pool of distinct
    #: calls, calls per repetition) — full size, then smoke size.
    shape = (True, 2.0, 200_000, 4, 8)
    smoke_shape = (True, 2.0, 4_000, 2, 4)

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        (self.policies, self.zipf, self.call_size, self.pool,
         self.calls_per_rep) = self.smoke_shape if smoke else self.shape

    # -- set-up ------------------------------------------------------------

    def _config(self) -> DtlConfig:
        if self.policies:
            return DtlConfig()  # both policies on, paper-default timers
        return DtlConfig(enable_self_refresh=False, enable_power_down=False)

    def setup(self) -> DatapathSystem:
        config = self._config()
        start = perf_counter()
        rng = np.random.default_rng(self.seed)
        segment = config.geometry.segment_bytes
        segments = NUM_AUS * config.au_bytes // segment
        count = self.pool * self.call_size
        popular = rng.zipf(self.zipf, count) % segments
        hpas = (popular * segment + rng.integers(0, segment, count)
                ).astype(np.int64).reshape(self.pool, self.call_size)
        writes = (rng.random(count) < WRITE_FRACTION
                  ).reshape(self.pool, self.call_size)
        generate_s = perf_counter() - start
        controller = DtlController(config, metrics=MetricsRegistry.null(),
                                   trace=EventTrace.disabled())
        controller.allocate_vm(0, NUM_AUS * config.au_bytes)
        if self.policies:
            self._start_migrations_and_profiling(controller, hpas[0])
        # Warm the SMC with one full call so measurement starts steady.
        controller.access_batch(0, hpas[0], writes[0], now_ns=NOW_NS)
        return DatapathSystem(controller, hpas, writes, generate_s)

    @staticmethod
    def _start_migrations_and_profiling(controller: DtlController,
                                        hpas: np.ndarray) -> None:
        """Three tracked migrations (one with copied lines, so conflicting
        writes abort rather than only redirect) and a victim rank selected
        on every channel."""
        layout = controller.device_layout
        tables, allocator = controller.tables, controller.allocator
        for dsn in tables.live_dsns()[:MIGRATIONS_IN_FLIGHT]:
            channel = layout.channel_of_dsn(dsn)
            partner = next(
                candidate
                for candidate in range(controller.geometry.total_segments)
                if layout.channel_of_dsn(candidate) == channel
                and not allocator.is_allocated(candidate))
            allocator.reserve_specific(partner)
            controller.migration.submit(tables.hsn_of_dsn(dsn), dsn, partner)
        controller.migration.step_channel(0, lines=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerformanceWarning)
            for hpa in hpas[:PROFILING_WARMUP].tolist():
                controller.access(0, hpa, False, now_ns=0.0)
        controller.end_window()
        controller.tick(0.0)

    # -- measurement -------------------------------------------------------

    def _calls(self, system: DatapathSystem):
        """The ``(hpas, writes)`` pairs of a repetition (the same every
        time: the pool of distinct calls, cycled)."""
        for call in range(self.calls_per_rep):
            yield system.hpas[call % self.pool], \
                system.writes[call % self.pool]

    def measure(self, system: DatapathSystem, collect: bool,
                tracer) -> Rep:
        controller = system.controller
        access_batch = controller.access_batch
        latencies = []
        accesses = 0
        stats = np.zeros(4)  # translation ns, L1 hits, L2 hits, redirects
        prefix = []  # results covering the first CHECK_PREFIX accesses
        for op, (hpas, writes) in enumerate(self._calls(system)):
            if tracer is not None:
                tracer.set_op(op)
            start = perf_counter()
            result = access_batch(0, hpas, writes, now_ns=NOW_NS)
            latencies.append((perf_counter() - start) * 1e3)
            accesses += len(hpas)
            if collect:
                stats += (
                    float((result.latency_ns - result.wake_penalty_ns).sum())
                    - controller.cxl_latency_ns * len(hpas),
                    int(result.smc_l1_hits.sum()),
                    int(result.smc_l2_hits.sum()),
                    int(result.routed_to_new_dsn.sum()))
                if sum(map(len, prefix)) < CHECK_PREFIX:
                    prefix.append(result)
        rep = Rep(wall_s=sum(latencies) / 1e3, work=accesses,
                  ops=len(latencies), latencies_ms=latencies)
        if collect:
            rep.model_cost = stats[0] / accesses
            rep.counts = {
                "accesses": accesses, "l1_hits": stats[1],
                "l2_hits": stats[2], "redirected_writes": stats[3],
                "distinct_hsns": len(np.unique(
                    system.hpas >> controller.host_layout
                    .segment_offset_bits)),
                "prefix": prefix}
        return rep

    def instrument(self, system: DatapathSystem, tracer) -> None:
        instrument_controller(tracer, system.controller,
                              all_light=self.calls_per_rep >= 1_000)

    # -- checks ------------------------------------------------------------

    def check(self, system: DatapathSystem, twin: DatapathSystem,
              first: Rep) -> list[str]:
        """The first call's prefix replayed through scalar ``access`` on
        the twin must equal the batch result element for element."""
        batch = first.counts["prefix"]
        n = min(CHECK_PREFIX, sum(map(len, batch)))
        failures = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerformanceWarning)
            scalar = [twin.controller.access(0, int(hpa), bool(write),
                                             now_ns=NOW_NS)
                      for hpa, write in zip(twin.hpas[0][:n],
                                            twin.writes[0][:n])]
        for field, attr in (("dsns", "dsn"), ("smc_l1_hits", "smc_l1_hit"),
                            ("smc_l2_hits", "smc_l2_hit"),
                            ("latency_ns", "latency_ns")):
            expected = np.array([getattr(r, attr) for r in scalar])
            got = np.concatenate([getattr(r, field) for r in batch])[:n]
            if not np.array_equal(got, expected):
                failures.append(f"scalar replay differs from batch in "
                                f"{field} over the first {n} accesses")
        audit = ConsistencyChecker(system.controller).audit(
            balance_tolerance=MIGRATIONS_IN_FLIGHT)
        failures.extend(audit.violations[:5])
        return failures

    def layer_counts(self, system: DatapathSystem,
                     first: Rep) -> dict[str, float]:
        counts = first.counts
        accesses = counts["accesses"]
        l1_misses = accesses - counts["l1_hits"]
        fills = l1_misses - counts["l2_hits"]
        return {
            "segment_cache.distinct_hsns": counts["distinct_hsns"],
            "segment_cache.l1_hit_ratio": counts["l1_hits"] / accesses,
            "segment_cache.l2_hit_ratio":
                counts["l2_hits"] / l1_misses if l1_misses else 0.0,
            "segment_cache.fills": fills,
            "migration.redirected_writes": counts["redirected_writes"],
            # The null registry hides migration.aborts; every abort bumps
            # its request's retry count.
            "migration.aborts": sum(
                request.retries + request.requeues
                * (system.controller.migration.max_retries + 1)
                for request in system.controller.migration
                .tracked_requests()),
            "translation.sim_mean_ns": first.model_cost,
            "workloads.generate_s": system.generate_s,
        }


class DatapathHot(DatapathWorkload):
    name = "datapath_hot"


class DatapathCold(DatapathWorkload):
    name = "datapath_cold"
    shape = (False, 1.5, 200_000, 4, 4)
    smoke_shape = (False, 1.5, 4_000, 2, 4)


class DatapathSliver(DatapathWorkload):
    name = "datapath_sliver"
    # One pooled row is cut into 128-access calls: the hot trace, the hot
    # controller state, a different call size.
    shape = (True, 2.0, 200_000, 4, 1_000)
    smoke_shape = (True, 2.0, 4_000, 2, 40)
    sliver = 128

    def _calls(self, system: DatapathSystem):
        per_row = self.call_size // self.sliver
        for call in range(self.calls_per_rep):
            row, column = divmod(call % (self.pool * per_row), per_row)
            window = slice(column * self.sliver, (column + 1) * self.sliver)
            yield system.hpas[row][window], system.writes[row][window]
