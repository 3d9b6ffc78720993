"""DTL core: translation, allocation, migration, and power policies."""

from repro.core.addressing import (DEFAULT_AU_BYTES, DEFAULT_MAX_HOSTS,
                                   DeviceAddressLayout, HostAddressLayout,
                                   SegmentLocation)
from repro.core.allocator import RankRole, RankUsage, SegmentAllocator
from repro.core.checker import (AuditReport, ConsistencyChecker,
                                ConsistencyError, check)
from repro.core.config import DtlConfig
from repro.core.controller import AccessResult, DtlController, VmHandle
from repro.core.migration import (MigrationEngine, MigrationRequest,
                                  MigrationStats, WriteRouting)
from repro.core.power_down import PowerTransition, RankPowerDownPolicy
from repro.core.retirement import RankRetirementManager, RetirementRecord
from repro.core.segment_cache import (CacheStats, LookupResult,
                                      SegmentCacheConfig, SegmentMappingCache)
from repro.core.self_refresh import (ChannelPhase, HotnessSelfRefreshPolicy,
                                     SelfRefreshEvent)
from repro.core.tables import TranslationTables, WalkResult
from repro.core.translation import Translation, TranslationEngine

__all__ = [
    "DEFAULT_AU_BYTES",
    "DEFAULT_MAX_HOSTS",
    "DeviceAddressLayout",
    "HostAddressLayout",
    "SegmentLocation",
    "RankRole",
    "RankUsage",
    "SegmentAllocator",
    "DtlConfig",
    "AuditReport",
    "ConsistencyChecker",
    "ConsistencyError",
    "check",
    "AccessResult",
    "DtlController",
    "VmHandle",
    "MigrationEngine",
    "MigrationRequest",
    "MigrationStats",
    "WriteRouting",
    "PowerTransition",
    "RankPowerDownPolicy",
    "RankRetirementManager",
    "RetirementRecord",
    "CacheStats",
    "LookupResult",
    "SegmentCacheConfig",
    "SegmentMappingCache",
    "ChannelPhase",
    "HotnessSelfRefreshPolicy",
    "SelfRefreshEvent",
    "TranslationTables",
    "WalkResult",
    "Translation",
    "TranslationEngine",
]
