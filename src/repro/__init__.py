"""Reproduction of "DRAM Translation Layer: Software-Transparent DRAM Power
Savings for Disaggregated Memory" (Jin et al., ISCA 2023).

Public entry points:

* :class:`repro.core.DtlController` -- the DTL-equipped CXL memory
  device (the DTL sits inside the CXL memory controller).
* :mod:`repro.workloads` -- Azure-like VM schedules and CloudSuite-like
  synthetic memory traces.
* :mod:`repro.sim` -- the power-down and self-refresh experiment simulators.
* :mod:`repro.analysis` -- AMAT, structure-sizing, and controller area/power
  models (paper Sections 6.1, 6.5, 6.6).
* :mod:`repro.telemetry` -- metrics registry, event trace, and snapshot
  export shared by every subsystem (see ``docs/TELEMETRY.md``).
"""

from repro.core import DtlConfig, DtlController
from repro.cxl import CxlLinkConfig
from repro.dram import DramGeometry, PowerState
from repro.telemetry import EventKind, EventTrace, MetricsRegistry, Snapshot

__version__ = "1.0.0"

__all__ = [
    "DtlConfig",
    "DtlController",
    "CxlLinkConfig",
    "DramGeometry",
    "PowerState",
    "EventKind",
    "EventTrace",
    "MetricsRegistry",
    "Snapshot",
    "__version__",
]
