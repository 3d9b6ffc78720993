"""Shared-fabric contention on a pooled-memory node.

The paper's deployment model (Figure 3) is a rack where "VMs on multiple
compute nodes share a CXL-attached pooled memory node".  Every host
reaches that node through the same fabric ports, so the rack's
aggregate bandwidth demand queues for a fixed capacity:
:func:`pool_contention` turns that demand into a per-access slowdown
(``RackConfig`` in :mod:`repro.sim.fleet` applies it to each rack).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.timing import CXL_MEMORY_LATENCY_NS, md1_wait_ns
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PoolContentionConfig:
    """Shared-fabric contention parameters for one pooled-memory node.

    Attributes:
        bandwidth_gbs: Usable fabric bandwidth into the pool node
            (default: four x8 PCIe 5.0-class ports).
        service_ns: Mean service time of one pooled access — the
            uncontended CXL end-to-end latency (Table 1).
        max_utilization: Utilisation cap; demand beyond it queues at the
            cap instead of driving the M/D/1 delay to infinity (real
            fabrics throttle via credit backpressure first).
    """

    bandwidth_gbs: float = 128.0
    service_ns: float = CXL_MEMORY_LATENCY_NS
    max_utilization: float = 0.95

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0:
            raise ConfigurationError("bandwidth_gbs must be positive")
        if not 0.0 < self.max_utilization < 1.0:
            raise ConfigurationError(
                "max_utilization must be in (0, 1), got "
                f"{self.max_utilization}")


@dataclass(frozen=True)
class PoolContention:
    """Contention on a shared pool at a given aggregate demand.

    ``queue_delay_ns`` follows the M/D/1 mean waiting time
    (:func:`~repro.dram.timing.md1_wait_ns`) — deterministic service (a
    fixed-size cacheline transfer), Poisson arrivals from many
    independent VMs.  ``slowdown`` is the contended-to-uncontended
    access-latency ratio, the factor a rack applies on top of each
    node's own execution-time stretch.
    """

    demand_gbs: float
    capacity_gbs: float
    utilization: float
    queue_delay_ns: float
    slowdown: float

    @property
    def saturated(self) -> bool:
        """True when demand was clipped at the utilisation cap."""
        return self.demand_gbs / self.capacity_gbs > self.utilization + 1e-12


def pool_contention(demand_gbs: float,
                    config: PoolContentionConfig | None = None,
                    ) -> PoolContention:
    """Contention stats for ``demand_gbs`` of aggregate pool traffic."""
    config = config or PoolContentionConfig()
    if demand_gbs < 0:
        raise ConfigurationError(
            f"demand_gbs must be non-negative, got {demand_gbs}")
    rho = min(demand_gbs / config.bandwidth_gbs, config.max_utilization)
    queue_delay_ns = md1_wait_ns(rho, config.service_ns)
    slowdown = (config.service_ns + queue_delay_ns) / config.service_ns
    return PoolContention(demand_gbs=demand_gbs,
                          capacity_gbs=config.bandwidth_gbs,
                          utilization=rho,
                          queue_delay_ns=queue_delay_ns,
                          slowdown=slowdown)


__all__ = ["PoolContentionConfig", "PoolContention", "pool_contention"]
