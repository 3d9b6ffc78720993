"""Analytical performance model for rank/interleaving sensitivity.

Reproduces the paper's performance experiments:

* **Figure 2** — execution-time change when the number of active ranks per
  channel shrinks from eight to two (paper: 0.7 % average loss at 2 ranks).
* **Figure 5** — cost of disabling rank interleaving, under local DRAM
  latency (paper: 1.7 %) and CXL latency (1.4 % — the same absolute
  queueing delta matters relatively less when the base latency is higher).

The model is a standard additive CPI decomposition: per kilo-instruction,

``T = T_core + MAPKI x AMAT_eff / MLP``

where ``AMAT_eff = base_latency + bank_queueing_delay``.  Bank queueing is
an M/D/1 waiting time over the banks visible to the workload's data:
with rank interleaving, data (and hence load) spreads over every rank's
banks; without it, a workload's footprint covers only the ranks that hold
its data, so the same load concentrates on fewer banks.  The effect is
small because bank- and channel-level parallelism already absorb most of
the load — which is precisely the paper's argument (Section 2).
"""

from __future__ import annotations

from repro.dram.timing import (CXL_MEMORY_LATENCY_NS, NATIVE_DRAM_LATENCY_NS,
                               md1_wait_ns)
from repro.units import GIB
from repro.workloads.cloudsuite import CLOCK_GHZ, PROFILES, WorkloadProfile

#: The Figure 2 testbed (Section 5.1): 28 cores at ``CLOCK_GHZ`` over four
#: DRAM channels of eight 2 GiB ranks, 16 banks each.  Both the
#: analytical model below and the trace-driven sweep
#: (:mod:`repro.sim.rank_sweep`) read these.
CORES = 28
CORE_UTILIZATION = 0.85
CHANNELS = 4
RANKS_PER_CHANNEL = 8
BANKS_PER_RANK = 16
RANK_BYTES = 2 * GIB
#: Mean bank service time of the analytical model.
BANK_SERVICE_NS = 76.0
#: Memory-level parallelism: outstanding misses per core.
MLP = 2.5


def access_rate_per_channel(profile: WorkloadProfile) -> float:
    """Post-cache accesses per second hitting one testbed channel."""
    instr_per_s = (CORES * CLOCK_GHZ * 1e9 * profile.ipc
                   * CORE_UTILIZATION)
    return profile.mapki / 1000.0 * instr_per_s / CHANNELS


def bank_wait_ns(arrival_per_s: float, service_ns: float) -> float:
    """M/D/1 mean waiting time of one bank (utilisation capped at 0.95)."""
    return md1_wait_ns(min(0.95, arrival_per_s * service_ns * 1e-9),
                       service_ns)


def time_per_ki_ns(profile: WorkloadProfile, memory_latency_ns: float,
                   queue_ns: float) -> float:
    """CPI decomposition: execution time of 1000 instructions."""
    core_ns = 1000.0 / (profile.ipc * CLOCK_GHZ)
    amat = memory_latency_ns + queue_ns
    return core_ns + profile.mapki * amat / MLP


class PerformanceModel:
    """Execution-time estimates under different DRAM configurations."""

    # -- components -----------------------------------------------------------------

    def bank_queue_delay_ns(self, profile: WorkloadProfile,
                            visible_ranks: float) -> float:
        """M/D/1 mean waiting time at the banks of ``visible_ranks`` ranks
        (fractional counts interpolate the queue)."""
        if visible_ranks < 1:
            raise ValueError("need at least one visible rank")
        banks = visible_ranks * BANKS_PER_RANK
        return bank_wait_ns(access_rate_per_channel(profile) / banks,
                            BANK_SERVICE_NS)

    def time_per_kilo_instruction_ns(self, profile: WorkloadProfile,
                                     visible_ranks: float,
                                     memory_latency_ns: float) -> float:
        """Execution time of 1000 instructions under the configuration."""
        return time_per_ki_ns(profile, memory_latency_ns,
                              self.bank_queue_delay_ns(profile,
                                                       visible_ranks))

    # -- experiments -------------------------------------------------------------------

    def rank_sweep_slowdown(self, profile: WorkloadProfile,
                            active_ranks: int,
                            memory_latency_ns: float = NATIVE_DRAM_LATENCY_NS,
                            ) -> float:
        """Figure 2: relative execution time with fewer active ranks.

        Returns ``T(active) / T(8 ranks) - 1`` (positive = slower).
        """
        t_base = self.time_per_kilo_instruction_ns(
            profile, RANKS_PER_CHANNEL, memory_latency_ns)
        t_new = self.time_per_kilo_instruction_ns(profile, active_ranks,
                                                  memory_latency_ns)
        return t_new / t_base - 1.0

    def interleaving_slowdown(self, profile: WorkloadProfile,
                              memory_latency_ns: float,
                              footprint_rank_share: float = 0.125) -> float:
        """Figure 5: relative cost of disabling rank interleaving.

        With interleaving, a workload's accesses spread over every rank of
        a channel; without it, they cover only the ranks holding its data
        (``footprint_rank_share`` of the channel, at least one rank).
        """
        visible = max(1.0, footprint_rank_share * RANKS_PER_CHANNEL)
        t_interleaved = self.time_per_kilo_instruction_ns(
            profile, RANKS_PER_CHANNEL, memory_latency_ns)
        t_no_interleave = self.time_per_kilo_instruction_ns(
            profile, visible, memory_latency_ns)
        return t_no_interleave / t_interleaved - 1.0

    # -- aggregates ----------------------------------------------------------------------

    def mean_rank_sweep_slowdown(self, active_ranks: int,
                                 memory_latency_ns: float =
                                 NATIVE_DRAM_LATENCY_NS) -> float:
        """Average Figure 2 slowdown over all ten CloudSuite profiles."""
        values = [self.rank_sweep_slowdown(profile, active_ranks,
                                           memory_latency_ns)
                  for profile in PROFILES.values()]
        return sum(values) / len(values)

    def mean_interleaving_slowdown(self, cxl: bool) -> float:
        """Average Figure 5 slowdown (local vs CXL latency)."""
        latency = CXL_MEMORY_LATENCY_NS if cxl else NATIVE_DRAM_LATENCY_NS
        values = [self.interleaving_slowdown(profile, latency)
                  for profile in PROFILES.values()]
        return sum(values) / len(values)


#: Paper constants used by the energy/performance post-processing
#: (Sections 5.1 and 6.2).
INTERLEAVING_OFF_PENALTY_CXL = 0.014
TRANSLATION_OVERHEAD = 0.0018


__all__ = [
    "PerformanceModel",
    "access_rate_per_channel",
    "bank_wait_ns",
    "time_per_ki_ns",
    "INTERLEAVING_OFF_PENALTY_CXL",
    "TRANSLATION_OVERHEAD",
]
