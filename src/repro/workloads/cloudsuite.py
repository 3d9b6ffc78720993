"""CloudSuite-like synthetic workload generators.

The paper traces 8–10 CloudSuite benchmarks with Pin and replays their
post-cache traces (Section 5.2).  CloudSuite itself cannot run here, so
each benchmark is replaced by a parameterised synthetic generator whose
published characteristics are inputs:

* **MAPKI** — memory accesses per kilo-instruction, Table 4.
* **Post-cache stride distribution** — Figure 9 (three benchmarks have
  narrow standalone strides: Data-serving, Media-streaming, Web-serving;
  the rest are dominated by >=4 MB strides).
* **Segment hotness** — Figure 10: on average 61.5 % of 2 MB segments are
  cold (minimum reuse distance above 10 M instructions).

The generators are deterministic given a seed, and the *mixed*-trace
behaviour of Figure 9 (89.3 % of strides >=4 MB for the 8-app mix) emerges
from interleaving rather than being configured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.units import CACHELINE_BYTES, GIB, MIB
from repro.workloads.trace import Trace

SEGMENT_BYTES = 2 * MIB

#: Testbed core clock (Section 5.1), also :mod:`repro.sim.perf_model`'s.
CLOCK_GHZ = 2.7
#: Share of cycles a VM's vCPUs retire instructions (Section 5.1).
VCPU_UTILIZATION = 0.5

#: Stride bucket upper edges used by the generators and Figure 9:
#: [64 B, 4 KiB), [4 KiB, 64 KiB), [64 KiB, 1 MiB), [1 MiB, 4 MiB), >=4 MiB.
STRIDE_BUCKET_EDGES = (CACHELINE_BYTES, 4096, 65536, 1 << 20, 1 << 22)


@dataclass(frozen=True)
class WorkloadProfile:
    """Synthetic stand-in for one CloudSuite benchmark.

    Attributes:
        name: Benchmark name (CloudSuite spelling, lower-case).
        mapki: Memory accesses per kilo-instruction (Table 4).
        stride_probs: Probability of each stride bucket; the last bucket
            (>= 4 MiB) produces a jump to a new segment.
        hot_segment_fraction: Fraction of the footprint's 2 MiB segments
            that are hot.
        hot_access_prob: Probability an access (segment jump) targets the
            hot set.
        warm_fraction: Fraction of the *cold* set that still receives the
            rare off-hot accesses; the remainder is frozen (resident but
            untouched in steady state).
        deep_cold_fraction: Fraction of the *frozen* tier that stays quiet
            even under the paper's boosted replay rate (Section 5.2) —
            segments with reuse distances so long that no access lands in
            any 50 ms profiling window.  The rest of the frozen tier is
            touched occasionally when traces are replayed at >30 GB/s.
        write_fraction: Store share of post-cache accesses.
        footprint_bytes: Default resident working set of one instance.
        ipc: Mean instructions per cycle (used to convert MAPKI into
            bandwidth for the power model).
    """

    name: str
    mapki: float
    stride_probs: tuple[float, ...]
    hot_segment_fraction: float
    hot_access_prob: float = 0.97
    warm_fraction: float = 0.10
    deep_cold_fraction: float = 0.23
    write_fraction: float = 0.3
    footprint_bytes: int = 16 * GIB
    ipc: float = 0.8

    def __post_init__(self) -> None:
        if len(self.stride_probs) != len(STRIDE_BUCKET_EDGES):
            raise ConfigurationError(
                f"{self.name}: need {len(STRIDE_BUCKET_EDGES)} bucket probs")
        if abs(sum(self.stride_probs) - 1.0) > 1e-9:
            raise ConfigurationError(f"{self.name}: bucket probs must sum to 1")
        if not 0.0 < self.hot_segment_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.name}: hot_segment_fraction out of (0, 1]")

    def bandwidth_gbs(self, vcpus: int) -> float:
        """Post-cache bandwidth of one instance (Section 5.1 power model).

        ``MAPKI x instruction rate x 64 B``, with :data:`VCPU_UTILIZATION`
        of the vCPUs' cycles retiring instructions.
        """
        instr_per_s = vcpus * CLOCK_GHZ * 1e9 * self.ipc * VCPU_UTILIZATION
        return self.mapki / 1000.0 * instr_per_s * CACHELINE_BYTES / 1e9


def _profile(name: str, mapki: float, large_stride_share: float,
             hot_fraction: float, **kwargs) -> WorkloadProfile:
    """Helper: split the non-jump probability over the small buckets."""
    small = 1.0 - large_stride_share
    # Weight small strides towards the cacheline/page buckets, as post-LLC
    # traces of server workloads show.
    weights = np.array([0.45, 0.30, 0.15, 0.10])
    probs = tuple(small * weights / weights.sum()) + (large_stride_share,)
    return WorkloadProfile(name=name, mapki=mapki, stride_probs=probs,
                           hot_segment_fraction=hot_fraction, **kwargs)


#: Table 4 benchmarks.  ``large_stride_share`` encodes Figure 9:
#: Data-serving, Media-streaming and Web-serving have narrow standalone
#: strides; every other benchmark is dominated by >=4 MB strides.
PROFILES: dict[str, WorkloadProfile] = {
    profile.name: profile for profile in (
        _profile("data-analytics", 1.9, 0.62, 0.34, deep_cold_fraction=0.23),
        _profile("data-caching", 1.5, 0.58, 0.25, deep_cold_fraction=0.49),
        _profile("data-serving", 4.2, 0.22, 0.29, deep_cold_fraction=0.16),
        _profile("django-workload", 0.8, 0.60, 0.37, deep_cold_fraction=0.29),
        _profile("fb-oss-performance", 3.6, 0.64, 0.33,
                 deep_cold_fraction=0.08),
        _profile("graph-analytics", 6.5, 0.72, 0.41, deep_cold_fraction=0.026),
        _profile("in-memory-analytics", 2.5, 0.66, 0.31,
                 deep_cold_fraction=0.13),
        _profile("media-streaming", 4.6, 0.24, 0.25, deep_cold_fraction=0.46),
        _profile("web-search", 0.7, 0.55, 0.37, deep_cold_fraction=0.23),
        _profile("web-serving", 0.7, 0.20, 0.29, deep_cold_fraction=0.42),
    )
}

#: The 8 benchmarks the paper collects full traces for (Section 5.2 /
#: Figure 9) — Table 4 lists 10, of which 8 "run to completion on Pintool".
TRACED_BENCHMARKS = (
    "data-analytics", "data-caching", "data-serving", "django-workload",
    "fb-oss-performance", "graph-analytics", "in-memory-analytics",
    "media-streaming",
)


class TraceGenerator:
    """Vectorised post-cache trace synthesis for one workload profile."""

    def __init__(self, profile: WorkloadProfile,
                 footprint_bytes: int | None = None,
                 seed: int | np.random.Generator = 0):
        self.profile = profile
        self.footprint_bytes = footprint_bytes or profile.footprint_bytes
        if self.footprint_bytes < 2 * SEGMENT_BYTES:
            raise ConfigurationError("footprint must span several segments")
        self.rng = (seed if isinstance(seed, np.random.Generator)
                    else np.random.default_rng(seed))
        self.num_segments = self.footprint_bytes // SEGMENT_BYTES
        hot_count = max(1, round(profile.hot_segment_fraction
                                 * self.num_segments))
        all_segments = self.rng.permutation(self.num_segments)
        self.hot_segments = np.sort(all_segments[:hot_count])
        cold = all_segments[hot_count:]
        # Cold data splits into a small *warm* tier that absorbs the rare
        # off-hot accesses (metadata sweeps, background jobs) and a
        # *frozen* remainder that is resident but untouched in steady
        # state.  The frozen tier is what gives Figure 10 its long reuse
        # distances at both 2 MB and 4 MB granularity.
        warm_count = max(1, round(profile.warm_fraction * len(cold))) \
            if len(cold) else 0
        self.warm_segments = np.sort(cold[:warm_count])
        frozen = cold[warm_count:]
        deep_count = round(profile.deep_cold_fraction * len(frozen))
        self.deep_cold_segments = np.sort(frozen[:deep_count])
        self.shallow_frozen_segments = np.sort(frozen[deep_count:])
        self.frozen_segments = np.sort(frozen)
        self.cold_segments = np.sort(cold)
        # Zipf-like popularity inside the hot set: a few very hot segments,
        # a long warm tail.
        ranks = np.arange(1, hot_count + 1, dtype=np.float64)
        weights = 1.0 / np.sqrt(ranks)
        self._hot_weights = weights / weights.sum()

    # -- helpers ------------------------------------------------------------------

    def _sample_strides(self, buckets: np.ndarray) -> np.ndarray:
        """Log-uniform stride magnitudes within each bucket."""
        edges = (0,) + STRIDE_BUCKET_EDGES
        lows = np.array([max(edges[index], CACHELINE_BYTES)
                         for index in range(len(edges) - 1)] + [0])
        highs = np.array(list(STRIDE_BUCKET_EDGES) + [0])
        strides = np.empty(len(buckets), dtype=np.int64)
        for bucket in range(len(STRIDE_BUCKET_EDGES)):
            mask = buckets == bucket
            count = int(mask.sum())
            if not count:
                continue
            low, high = lows[bucket], highs[bucket]
            raw = np.exp(self.rng.uniform(np.log(low), np.log(high),
                                          size=count))
            quantised = (raw // CACHELINE_BYTES).astype(np.int64) \
                * CACHELINE_BYTES
            # exp(log(low)) can land a hair below ``low``; clamp back into
            # the bucket so no zero strides escape.
            strides[mask] = np.clip(quantised, low,
                                    max(low, high - CACHELINE_BYTES))
        return strides

    def _sample_segments(self, count: int) -> np.ndarray:
        """Jump targets: hot set with ``hot_access_prob``, else cold."""
        take_hot = self.rng.random(count) < self.profile.hot_access_prob
        result = np.empty(count, dtype=np.int64)
        hot_n = int(take_hot.sum())
        if hot_n:
            result[take_hot] = self.rng.choice(
                self.hot_segments, size=hot_n, p=self._hot_weights)
        cold_n = count - hot_n
        if cold_n:
            if len(self.warm_segments):
                result[~take_hot] = self.rng.choice(self.warm_segments,
                                                    size=cold_n)
            else:
                result[~take_hot] = self.rng.choice(self.hot_segments,
                                                    size=cold_n)
        return result

    # -- generation ----------------------------------------------------------------

    def generate(self, num_accesses: int) -> Trace:
        """Produce a post-cache trace of ``num_accesses`` accesses."""
        profile = self.profile
        rng = self.rng
        n = num_accesses
        buckets = rng.choice(len(STRIDE_BUCKET_EDGES), size=n,
                             p=profile.stride_probs)
        jump_bucket = len(STRIDE_BUCKET_EDGES) - 1
        jumps = buckets == jump_bucket
        jumps[0] = True  # the stream starts with a placement
        strides = self._sample_strides(buckets)
        signs = rng.choice((-1, 1), size=n)
        small = np.where(jumps, 0, strides * signs)
        # Offsets accumulate within the current segment between jumps.
        group = np.cumsum(jumps) - 1
        cumulative = np.cumsum(small)
        group_starts = np.flatnonzero(jumps)
        base_cumulative = cumulative[group_starts][group]
        start_offsets = rng.integers(
            0, SEGMENT_BYTES // CACHELINE_BYTES,
            size=len(group_starts)) * CACHELINE_BYTES
        offsets = (start_offsets[group] + cumulative - base_cumulative) \
            % SEGMENT_BYTES
        segments = self._sample_segments(len(group_starts))[group]
        addresses = (segments * SEGMENT_BYTES + offsets).astype(np.uint64)
        is_write = rng.random(n) < profile.write_fraction
        # Geometric gaps reproduce the configured MAPKI in expectation.
        instr_deltas = rng.geometric(
            min(1.0, profile.mapki / 1000.0), size=n).astype(np.uint32)
        return Trace(addresses=addresses, is_write=is_write,
                     instr_deltas=instr_deltas, name=profile.name)

    def segment_access_rates(self) -> np.ndarray:
        """Per-segment share of accesses (sums to 1).

        This closed-form view of the generator feeds the windowed
        self-refresh simulator, which draws per-window access counts
        instead of replaying individual accesses.
        """
        rates = np.zeros(self.num_segments, dtype=np.float64)
        rates[self.hot_segments] = (self.profile.hot_access_prob
                                    * self._hot_weights)
        if len(self.warm_segments):
            rates[self.warm_segments] = ((1.0 - self.profile.hot_access_prob)
                                         / len(self.warm_segments))
        else:
            rates[self.hot_segments] += (
                (1.0 - self.profile.hot_access_prob) * self._hot_weights)
        return rates / rates.sum()


def make_trace(name: str, num_accesses: int, footprint_bytes: int | None = None,
               seed: int = 0) -> Trace:
    """Convenience: generate a trace for a named benchmark."""
    try:
        profile = PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choices: {sorted(PROFILES)}"
        ) from None
    return TraceGenerator(profile, footprint_bytes, seed).generate(
        num_accesses)


__all__ = [
    "SEGMENT_BYTES",
    "CLOCK_GHZ",
    "VCPU_UTILIZATION",
    "STRIDE_BUCKET_EDGES",
    "WorkloadProfile",
    "PROFILES",
    "TRACED_BENCHMARKS",
    "TraceGenerator",
    "make_trace",
]
