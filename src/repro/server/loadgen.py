"""Async load generator for the DTL service.

Drives N concurrent tenants against a server — over TCP (``repro
loadgen`` against a live ``repro serve``) or in-process against a
:class:`~repro.server.server.DtlServer` (the soak experiment and the
benchmarks, where socket jitter would pollute the numbers).

Each tenant opens, allocates a few VMs, then issues a Zipf-skewed
stream of ``access_batch`` requests (hot segments stay hot, the access
pattern the DTL's profiling is built to exploit), interleaved with
occasional frees and re-allocations.  Requests carry logical
timestamps derived from the request index, so a loadgen run is a pure
function of its config — the same seed replays the same request
stream, which the drain/restore identity test leans on.

Wall-clock latency per request lands in a fixed-bounds histogram; the
:class:`LoadgenReport` carries throughput plus p50/p95/p99.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np

from repro.seeded import SeededConfig
from repro.server.protocol import MAX_LINE_BYTES, decode_line, encode
from repro.units import MIB

#: Histogram bucket bounds for request wall latency (microseconds).
LATENCY_BOUNDS_US = (
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 50_000.0, 200_000.0)

#: Reservation size per VM.
VM_BYTES = 2 * MIB
#: Zipf skew of the segment stream (1.0 ≈ realistic heat; higher
#: concentrates harder).
ZIPF_S = 1.2
#: Fraction of accesses that are stores.
WRITE_FRACTION = 0.3
#: Logical seconds each request advances a tenant's clock (drives
#: token-bucket refill deterministically).
TICK_S = 0.01


@dataclass(frozen=True)
class LoadgenConfig(SeededConfig):
    """One load-generation campaign.

    Attributes:
        tenants: Concurrent tenant tasks.
        requests_per_tenant: ``access_batch`` requests per tenant.
        batch: Accesses per ``access_batch`` request.
        vms_per_tenant: VMs each tenant allocates up front.
        churn_every: Free-and-reallocate one VM every this many
            requests (0 disables churn).
        seed: Seeds every tenant's stream (tenant index folded in).
        tenant_prefix: Tenant names are ``{prefix}{index}``.
    """

    tenants: int = 8
    requests_per_tenant: int = 50
    batch: int = 256
    vms_per_tenant: int = 2
    churn_every: int = 16
    seed: int = 1234
    tenant_prefix: str = "tenant-"


@dataclass
class LoadgenReport:
    """What a campaign observed."""

    tenants: int
    requests: int = 0
    accesses: int = 0
    ok: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    latency_us: list[float] = field(default_factory=list)

    @property
    def requests_per_s(self) -> float:
        """Observed request throughput."""
        return self.requests / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def accesses_per_s(self) -> float:
        """Observed access throughput."""
        return self.accesses / self.elapsed_s if self.elapsed_s else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile in microseconds (0 if nothing measured)."""
        if not self.latency_us:
            return 0.0
        return float(np.percentile(np.asarray(self.latency_us), q))

    def histogram(self) -> dict[str, int]:
        """Latency counts per fixed bucket (``<=bound_us`` keys)."""
        counts = {f"<={bound:g}us": 0 for bound in LATENCY_BOUNDS_US}
        counts["inf"] = 0
        for value in self.latency_us:
            for bound in LATENCY_BOUNDS_US:
                if value <= bound:
                    counts[f"<={bound:g}us"] += 1
                    break
            else:
                counts["inf"] += 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        """Plain-data summary (the benchmark record)."""
        return {
            "tenants": self.tenants,
            "requests": self.requests,
            "accesses": self.accesses,
            "ok": self.ok,
            "rejected": dict(sorted(self.rejected.items())),
            "elapsed_s": self.elapsed_s,
            "requests_per_s": self.requests_per_s,
            "accesses_per_s": self.accesses_per_s,
            "latency_us": {
                "p50": self.percentile(50.0),
                "p95": self.percentile(95.0),
                "p99": self.percentile(99.0),
                "histogram": self.histogram(),
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


#: A request sink: takes one request dict, returns the response dict.
RequestFn = Callable[[dict[str, Any]], Awaitable[dict[str, Any]]]


class _TcpClient:
    """One NDJSON connection wrapped as a :data:`RequestFn`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "_TcpClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES)
        return cls(reader, writer)

    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        self._writer.write(encode(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


def _zipf_weights(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -s
    return weights / weights.sum()


async def _drive_tenant(config: LoadgenConfig, index: int,
                        request_fn: RequestFn,
                        report: LoadgenReport) -> None:
    """One tenant's whole session: open, allocate, stream, close."""
    name = f"{config.tenant_prefix}{index}"
    rng = np.random.default_rng(config.seed + 7919 * index)
    clock = float(index)  # tenants start phase-shifted

    async def call(message: dict[str, Any]) -> dict[str, Any]:
        nonlocal clock
        clock += TICK_S
        message["tenant"] = name
        message["t"] = round(clock, 9)
        started = time.perf_counter()
        response = await request_fn(message)
        report.latency_us.append(
            (time.perf_counter() - started) * 1e6)
        report.requests += 1
        if response.get("ok"):
            report.ok += 1
        else:
            code = response.get("error", "unknown")
            report.rejected[code] = report.rejected.get(code, 0) + 1
        return response

    opened = await call({"op": "open_tenant"})
    if not opened.get("ok"):
        return
    vms: list[tuple[int, int]] = []  # (vm_id, segments)
    for _ in range(config.vms_per_tenant):
        response = await call({"op": "allocate", "bytes": VM_BYTES})
        if response.get("ok"):
            vms.append((response["vm"], response["segments"]))
    if not vms:
        await call({"op": "close"})
        return

    for step in range(config.requests_per_tenant):
        vm_id, segments = vms[step % len(vms)]
        weights = _zipf_weights(segments, ZIPF_S)
        segment_draw = rng.choice(segments, size=config.batch, p=weights)
        writes = rng.random(config.batch) < WRITE_FRACTION
        await call({
            "op": "access_batch", "vm": vm_id,
            "segments": [int(value) for value in segment_draw],
            "writes": [bool(value) for value in writes],
        })
        report.accesses += config.batch
        if config.churn_every and (step + 1) % config.churn_every == 0:
            victim_vm, _ = vms.pop(0)
            await call({"op": "free", "vm": victim_vm})
            response = await call({"op": "allocate", "bytes": VM_BYTES})
            if response.get("ok"):
                vms.append((response["vm"], response["segments"]))
            if not vms:
                break
    await call({"op": "close"})


async def run_loadgen(config: LoadgenConfig,
                      request_fn: RequestFn | None = None,
                      host: str | None = None,
                      port: int | None = None) -> LoadgenReport:
    """Run a campaign against ``request_fn`` or a TCP endpoint.

    Exactly one target must be given: an in-process coroutine (a
    :meth:`DtlServer.handle_request <repro.server.server.DtlServer.\
handle_request>` bound method) or a ``host``/``port`` pair.
    """
    if (request_fn is None) == (host is None or port is None):
        raise ValueError("pass either request_fn or host+port")
    report = LoadgenReport(tenants=config.tenants)
    clients: list[_TcpClient] = []

    async def tenant_task(index: int) -> None:
        if request_fn is not None:
            sink = request_fn
        else:
            client = await _TcpClient.connect(host, port)
            clients.append(client)
            sink = client.request
        await _drive_tenant(config, index, sink, report)

    started = time.perf_counter()
    await asyncio.gather(*(tenant_task(index)
                           for index in range(config.tenants)))
    report.elapsed_s = time.perf_counter() - started
    for client in clients:
        await client.close()
    return report


def run_loadgen_sync(config: LoadgenConfig, host: str,
                     port: int) -> LoadgenReport:
    """Blocking wrapper over :func:`run_loadgen` for CLI use."""
    return asyncio.run(run_loadgen(config, host=host, port=port))


__all__ = [
    "LATENCY_BOUNDS_US",
    "LoadgenConfig",
    "LoadgenReport",
    "run_loadgen",
    "run_loadgen_sync",
]
