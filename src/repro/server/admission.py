"""Admission control: per-tenant token buckets and capacity quotas.

Two gates stand between a request and a shard:

* a **token bucket** per tenant — requests cost one token (an access
  batch costs one per :attr:`AdmissionConfig.batch_cost_divisor`
  accesses, so a 1024-access batch cannot ride in on the same budget as
  a ping), refilled at ``rate_per_s`` with a burst ceiling; an empty
  bucket yields a typed ``rate_limited`` rejection carrying
  ``retry_after_s``, and
* a **capacity quota** per tenant — reservations past ``quota_bytes``
  yield ``quota_exceeded`` before the allocator is ever consulted, so a
  rejected tenant's controller state is untouched (the isolation suite
  audits exactly this).

Refill is driven by the request's logical timestamp when present (see
:mod:`repro.server.protocol`), which keeps admission decisions a pure
function of the request stream — the property the drain/restore
bit-identity test leans on.  The whole module is plain arithmetic on
plain state, so it serialises into the server checkpoint unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.seeded import SeededConfig
from repro.server.protocol import ErrorCode


@dataclass(frozen=True)
class AdmissionConfig(SeededConfig):
    """Admission-control knobs (one instance for the whole server).

    Attributes:
        max_tenants: Tenants the server will register at once.
        quota_bytes: Capacity quota per tenant (reserved bytes).
        rate_per_s: Token-bucket refill rate per tenant.
        burst: Token-bucket capacity (initial and maximum).
        batch_cost_divisor: One extra token per this many accesses in a
            batch (so request cost scales with the work it buys).
        queue_depth: Bound on each shard's apply queue.  A full queue
            blocks the submitting connection handler, which stops
            reading that client's socket — TCP backpressure, not
            unbounded buffering.
    """

    max_tenants: int = 64
    quota_bytes: int = 64 * 1024 * 1024
    rate_per_s: float = 2000.0
    burst: float = 200.0
    batch_cost_divisor: int = 256
    queue_depth: int = 128


class TokenBucket:
    """A deterministic token bucket (refill computed, never scheduled)."""

    __slots__ = ("rate", "burst", "tokens", "updated_s")

    def __init__(self, rate: float, burst: float, now_s: float = 0.0):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated_s = float(now_s)

    def _refill(self, now_s: float) -> None:
        # Clocks never run backwards here: a stale timestamp simply
        # earns no refill, it does not revoke tokens already granted.
        if now_s > self.updated_s:
            self.tokens = min(self.burst,
                              self.tokens + (now_s - self.updated_s)
                              * self.rate)
            self.updated_s = now_s

    def admit(self, now_s: float, cost: float = 1.0) -> float:
        """Try to take ``cost`` tokens at ``now_s``.

        Returns 0.0 on admission (tokens consumed) or the seconds until
        the bucket will hold ``cost`` tokens (nothing consumed).
        """
        self._refill(now_s)
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        if self.rate <= 0.0:
            return float("inf")
        return (cost - self.tokens) / self.rate


@dataclass
class Rejection:
    """One typed admission rejection."""

    code: ErrorCode
    message: str
    retry_after_s: float | None = None


class AdmissionController:
    """Tracks every tenant's bucket and quota usage."""

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self._buckets: dict[str, TokenBucket] = {}
        self._reserved: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def admit_open(self, tenant: str, now_s: float) -> Rejection | None:
        """Gate ``open_tenant``; registers the tenant on admission."""
        if tenant in self._buckets:
            return None  # re-attach is free
        if len(self._buckets) >= self.config.max_tenants:
            return Rejection(
                ErrorCode.TENANT_LIMIT,
                f"server is at its {self.config.max_tenants}-tenant limit")
        self._buckets[tenant] = TokenBucket(
            self.config.rate_per_s, self.config.burst, now_s)
        self._reserved[tenant] = 0
        return None

    def forget(self, tenant: str) -> None:
        """Drop a closed tenant's admission state."""
        self._buckets.pop(tenant, None)
        self._reserved.pop(tenant, None)

    # -- per-request gates -------------------------------------------------

    def batch_cost(self, accesses: int) -> float:
        """Token cost of an ``accesses``-element batch."""
        divisor = max(1, self.config.batch_cost_divisor)
        return 1.0 + accesses // divisor

    def admit_request(self, tenant: str, now_s: float,
                      cost: float = 1.0) -> Rejection | None:
        """Gate one request through the tenant's token bucket."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return Rejection(ErrorCode.UNKNOWN_TENANT,
                             f"tenant {tenant!r} is not open")
        retry_after = bucket.admit(now_s, cost)
        if retry_after > 0.0:
            return Rejection(
                ErrorCode.RATE_LIMITED,
                f"tenant {tenant!r} exceeded {self.config.rate_per_s:g} "
                "req/s", retry_after_s=retry_after)
        return None

    def admit_reservation(self, tenant: str,
                          num_bytes: int) -> Rejection | None:
        """Gate an allocation against the tenant's capacity quota."""
        reserved = self._reserved.get(tenant, 0)
        if reserved + num_bytes > self.config.quota_bytes:
            return Rejection(
                ErrorCode.QUOTA_EXCEEDED,
                f"reservation of {num_bytes} bytes would exceed the "
                f"{self.config.quota_bytes}-byte quota "
                f"({reserved} already reserved)")
        return None

    def reserve(self, tenant: str, num_bytes: int) -> None:
        """Record an admitted reservation."""
        self._reserved[tenant] = self._reserved.get(tenant, 0) + num_bytes

    def release(self, tenant: str, num_bytes: int) -> None:
        """Record a freed reservation."""
        self._reserved[tenant] = max(
            0, self._reserved.get(tenant, 0) - num_bytes)

    def reserved_bytes(self, tenant: str) -> int:
        """The tenant's currently reserved bytes."""
        return self._reserved.get(tenant, 0)


__all__ = [
    "AdmissionConfig",
    "TokenBucket",
    "Rejection",
    "AdmissionController",
]
