"""CXL link latency model.

The paper emulates CXL memory by injecting extra latency on top of native
DRAM access (Quartz, Section 5.1): 121 ns native vs 210 ns via CXL.  This
module models that delta and what a link-layer replay costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.timing import CXL_MEMORY_LATENCY_NS, NATIVE_DRAM_LATENCY_NS


@dataclass(frozen=True)
class CxlLinkConfig:
    """CXL.mem link parameters.

    Attributes:
        base_latency_ns: One-way protocol + controller latency added on top
            of the DRAM access itself (defaults reproduce Table 1's
            210 ns end-to-end with 121 ns native DRAM).
    """

    base_latency_ns: float = CXL_MEMORY_LATENCY_NS - NATIVE_DRAM_LATENCY_NS

    def replay_latency_ns(self, retries: int,
                          backoff_ns: float = 0.0) -> float:
        """Extra latency of ``retries`` link-layer replays.

        CXL.mem recovers from link errors by replaying the transaction:
        each replay re-pays the protocol latency, plus an exponential
        backoff starting at ``backoff_ns`` and doubling per attempt
        (the bounded retry+backoff model the fault injector charges).
        """
        if retries <= 0:
            return 0.0
        backoff = sum(backoff_ns * 2 ** attempt
                      for attempt in range(retries))
        return retries * self.base_latency_ns + backoff


__all__ = ["CxlLinkConfig"]
