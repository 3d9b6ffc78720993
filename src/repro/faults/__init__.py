"""Deterministic fault injection for the DTL datapath.

The subsystem has four layers (see docs/FAULTS.md):

* :mod:`repro.faults.hooks` — the named hook-point registry: every place
  the datapath consults an armed injector, with the method and module
  that implement it (lint-guarded by ``tests/faults/test_hook_registry``).
* :mod:`repro.faults.plan` — :class:`FaultPlan`: a frozen, hashable
  schedule of fault specs fired by deterministic visit counting (no RNG
  or wall clock at fire time).
* :mod:`repro.faults.injector` — :class:`FaultInjector`: executes a plan
  at the hook points and accumulates a :class:`ReliabilityReport`.
* :mod:`repro.faults.chaos` — :class:`ChaosSoakExperiment`: an
  escalating soak cross-checked by the consistency checker.

Arming is explicit: ``controller.arm_faults(injector)``.  An experiment
that injects faults derives its plan from its config, so the config hash
that keys the result cache already covers the plan.
"""

from repro.faults.chaos import (ChaosSoakConfig, ChaosSoakExperiment,
                                ChaosSoakResult)
from repro.faults.hooks import HOOK_CATALOG, HookInfo, HookPoint
from repro.faults.injector import FaultInjector, ReliabilityReport
from repro.faults.plan import (CxlLinkFault, EccFault, FaultPlan, FaultSpec,
                               MigrationAbortFault, PowerExitFault,
                               SmcCorruptionFault, hook_point_of)

__all__ = [
    "HOOK_CATALOG",
    "HookInfo",
    "HookPoint",
    "FaultSpec",
    "CxlLinkFault",
    "EccFault",
    "MigrationAbortFault",
    "PowerExitFault",
    "SmcCorruptionFault",
    "FaultPlan",
    "hook_point_of",
    "FaultInjector",
    "ReliabilityReport",
    "ChaosSoakConfig",
    "ChaosSoakExperiment",
    "ChaosSoakResult",
]
