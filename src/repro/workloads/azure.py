"""Synthetic Azure-like VM trace generator (Figure 1 methodology).

The paper samples 400 VMs from the Microsoft Azure public dataset
(Cortez et al., SOSP'17) "following the same original distribution" of
vCPU count, vMemory size, and lifetime, and schedules them for six hours
on a 48-vCPU / 384 GB node.  The dataset itself is not redistributable
here, so this module synthesises traces with the dataset's published
shape:

* vCPU counts are small and heavily skewed towards 1–2 cores;
* vMemory is a per-core ratio in the 2–8 GB/vCPU range (the paper
  provisions 8 GB/vCPU on its node, within the typical 4–11 GB/vCPU);
* lifetimes are multiples of 5 minutes with a short-lived majority and a
  heavy tail (most Azure VMs live under 15 minutes; a small fraction runs
  for many hours);
* arrivals are uniform over the trace interval.

The default parameters are calibrated so the scheduled node reproduces the
Figure 1 headline: average memory usage below 50 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.host.vm import VmSpec
from repro.units import GIB
from repro.workloads.cloudsuite import PROFILES

#: vMemory per vCPU (GiB) and lifetime (minutes) of the published Azure
#: dataset shape, as ``(values, probabilities)`` pairs.
GIB_PER_VCPU_VALUES = (2, 4, 8)
GIB_PER_VCPU_PROBS = (0.32, 0.40, 0.28)
LIFETIME_MINUTES_VALUES = (5, 10, 15, 20, 30, 60, 120, 240, 360)
LIFETIME_MINUTES_PROBS = (
    0.40, 0.22, 0.10, 0.08, 0.08, 0.06, 0.04, 0.015, 0.005)


@dataclass(frozen=True)
class AzureTraceConfig:
    """Knobs of the synthetic Azure VM trace.

    The vCPU distribution defaults to the published Azure dataset shape,
    as a ``(values, probabilities)`` pair.
    """

    num_vms: int = 400
    duration_s: float = 6 * 3600.0
    vcpu_values: tuple[int, ...] = (1, 2, 4, 8, 16, 24)
    vcpu_probs: tuple[float, ...] = (0.40, 0.28, 0.18, 0.09, 0.04, 0.01)

    def __post_init__(self) -> None:
        if len(self.vcpu_values) != len(self.vcpu_probs):
            raise ValueError("vcpu: values/probs length mismatch")
        if abs(sum(self.vcpu_probs) - 1.0) > 1e-9:
            raise ValueError("vcpu: probabilities must sum to 1")

    def mean_vcpus(self) -> float:
        """Expected vCPUs per VM."""
        return float(np.dot(self.vcpu_values, self.vcpu_probs))

    def mean_memory_bytes(self) -> float:
        """Expected vMemory per VM."""
        return (self.mean_vcpus()
                * float(np.dot(GIB_PER_VCPU_VALUES, GIB_PER_VCPU_PROBS))
                * GIB)

    def mean_lifetime_s(self) -> float:
        """Expected VM lifetime in seconds."""
        return float(np.dot(LIFETIME_MINUTES_VALUES,
                            LIFETIME_MINUTES_PROBS)) * 60.0


def generate_vm_trace(config: AzureTraceConfig | None = None,
                      seed: int | np.random.Generator = 0) -> list[VmSpec]:
    """Sample a synthetic Azure-like VM trace.

    Returns:
        VM specs sorted by arrival time.  Lifetimes are multiples of five
        minutes, memory is a whole number of GiB, and each VM is tagged
        with a CloudSuite workload drawn uniformly (Section 5.1: "the
        workload running on each VM is randomly selected from CloudSuite").
    """
    config = config or AzureTraceConfig()
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    n = config.num_vms
    vcpus = rng.choice(config.vcpu_values, size=n, p=config.vcpu_probs)
    gib_per_vcpu = rng.choice(GIB_PER_VCPU_VALUES, size=n,
                              p=GIB_PER_VCPU_PROBS)
    lifetimes = rng.choice(LIFETIME_MINUTES_VALUES, size=n,
                           p=LIFETIME_MINUTES_PROBS) * 60.0
    arrivals = np.sort(rng.uniform(0.0, config.duration_s, size=n))
    workloads = rng.choice(sorted(PROFILES), size=n)
    specs = [
        VmSpec(vm_name=f"vm-{index:04d}",
               vcpus=int(vcpus[index]),
               memory_bytes=int(vcpus[index]) * int(gib_per_vcpu[index]) * GIB,
               lifetime_s=float(lifetimes[index]),
               arrival_s=float(arrivals[index]),
               workload=str(workloads[index]))
        for index in range(n)
    ]
    return specs


__all__ = ["AzureTraceConfig", "generate_vm_trace"]
