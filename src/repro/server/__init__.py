"""Online service mode: the DTL as a long-running multi-tenant server.

The paper's translation layer is datacenter infrastructure — many VMs
against one pooled CXL device — yet everything else in this repo is a
batch experiment.  :mod:`repro.server` is the front door: a
stdlib-``asyncio`` TCP server speaking a
newline-delimited JSON protocol (:mod:`repro.server.protocol`),
dispatching each tenant's request stream onto sharded
:class:`~repro.core.controller.DtlController` instances
(:mod:`repro.server.shards` — consistent tenant→shard hashing, one
single-writer apply task per shard so the bit-exact core never sees
concurrent mutation), with token-bucket admission control and capacity
quotas (:mod:`repro.server.admission`), a live telemetry exporter,
always-on fault injection audited by the consistency checker, and a
graceful SIGTERM drain that checkpoints the whole fleet of shards for a
bit-identical restart (:mod:`repro.server.server`).

Clients: :mod:`repro.server.loadgen` is the async load generator the
``repro loadgen`` CLI and the benchmarks drive; the registered
``server-soak`` experiment (:mod:`repro.server.soak`) is the
reliability gate — ≥16 concurrent tenants under chaos with zero
invariant violations, zero cross-tenant leaks, and a proven
drain→restart identity.

See docs/SERVER.md for the protocol specification and lifecycle.
"""

from repro.server.admission import (AdmissionConfig, AdmissionController,
                                    TokenBucket)
from repro.server.loadgen import (LoadgenConfig, LoadgenReport, run_loadgen,
                                  run_loadgen_sync)
from repro.server.protocol import (MAX_LINE_BYTES, ErrorCode, ProtocolError,
                                   decode_line, encode, error_response,
                                   ok_response, render_snapshot)
from repro.server.server import (DtlServer, ServerConfig, serve_forever,
                                 server_fault_plan)
from repro.server.shards import ControllerShard, TenantRecord, shard_of
from repro.server.soak import (ServerSoakConfig, ServerSoakExperiment,
                               ServerSoakResult, quick_server_soak_config)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "TokenBucket",
    "LoadgenConfig",
    "LoadgenReport",
    "run_loadgen",
    "run_loadgen_sync",
    "MAX_LINE_BYTES",
    "ErrorCode",
    "ProtocolError",
    "decode_line",
    "encode",
    "error_response",
    "ok_response",
    "render_snapshot",
    "DtlServer",
    "ServerConfig",
    "serve_forever",
    "server_fault_plan",
    "ControllerShard",
    "TenantRecord",
    "shard_of",
    "ServerSoakConfig",
    "ServerSoakExperiment",
    "ServerSoakResult",
    "quick_server_soak_config",
]
