"""CXL substrate: the link model and shared-fabric pool contention."""

from repro.cxl.link import CxlLinkConfig
from repro.cxl.pool import (PoolContention, PoolContentionConfig,
                            pool_contention)

__all__ = ["CxlLinkConfig", "PoolContention", "PoolContentionConfig",
           "pool_contention"]
