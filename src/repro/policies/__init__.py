"""Pluggable migration/demotion policies for the DTL controllers.

See :mod:`repro.policies.protocol` for the contract and
``docs/POLICIES.md`` for how to write one.  Importing this package
registers the four built-in policies:

================  ======================================================
``paper``         The published behaviour: emptiest-first victims,
                  fullest-first targets, CLOCK cold search, static
                  MPSM/SR demotion.  Bit-identical to the pre-protocol
                  controllers.
``adaptive``      Paper selection, but park depth chosen per rank-group
                  from observed idle-gap histograms.
``rank_aware``    Lu et al.: coldest-first victims, hottest-first
                  targets, adaptive demotion.
``dream``         DReAM-style: cold partners drained coldest-rank-first
                  instead of round-robin.
================  ======================================================
"""

from repro.policies.adaptive import AdaptiveDemotionPolicy
from repro.policies.dream import DreamRemapPolicy
from repro.policies.idle import RankIdleTracker
from repro.policies.paper import PaperPolicy
from repro.policies.protocol import (
    POLICIES,
    ColdSearch,
    DemotionLevel,
    Policy,
    RankStats,
    available_policies,
    make_policy,
    register_policy,
)
from repro.policies.rank_aware import RankAwareMigrationPolicy

__all__ = [
    "ColdSearch",
    "DemotionLevel",
    "Policy",
    "RankStats",
    "POLICIES",
    "available_policies",
    "make_policy",
    "register_policy",
    "PaperPolicy",
    "AdaptiveDemotionPolicy",
    "RankAwareMigrationPolicy",
    "DreamRemapPolicy",
    "RankIdleTracker",
]
