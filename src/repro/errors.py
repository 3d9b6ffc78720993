"""Exception hierarchy for the DTL reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class AddressError(ReproError):
    """Raised for malformed or out-of-range addresses."""


class TranslationError(ReproError):
    """Raised when an HPA has no valid HPA-to-DPA mapping."""


class AllocationError(ReproError):
    """Raised when a memory allocation request cannot be satisfied."""


class MigrationError(ReproError):
    """Raised for invalid migration requests or protocol violations."""


class PowerStateError(ReproError):
    """Raised for illegal DRAM power-state transitions."""


# Nothing emits this any more.  It stays only because the frozen
# benchmark (bench/wl_datapath.py) imports it to silence it; it goes with
# the benchmark's own move to access_batch (ROADMAP item 18).
class PerformanceWarning(UserWarning):
    """A slow path was used where a faster batch equivalent exists."""
