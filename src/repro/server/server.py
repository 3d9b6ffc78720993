"""The asyncio DTL service: accept, admit, shard, audit, drain, resume.

:class:`DtlServer` is the long-running front door.  Connections speak
the newline-delimited JSON protocol (:mod:`repro.server.protocol`); each
request is admission-checked (:mod:`repro.server.admission`) and then
applied on its tenant's shard through the shard's single-writer task
(:mod:`repro.server.shards`).  Three background concerns run alongside
the request path:

* **live telemetry** — an exporter task writes the combined
  :meth:`MetricsRegistry.snapshot` (server counters plus every shard's
  full controller snapshot) to a file on a configurable interval, in
  the same rendering the ``stats`` op and ``repro stats --watch`` use;
* **always-on chaos** — every shard runs with an armed
  :class:`~repro.faults.injector.FaultInjector` (deterministic
  counter-arithmetic plans, derived per shard) and the consistency
  checker audits after every injected migration abort; and
* **graceful drain** — SIGTERM (or :meth:`DtlServer.drain`) stops
  admitting, flushes every shard's in-flight queue, writes a final
  telemetry snapshot, and persists a ``repro.checkpoint`` state blob
  that a restarted server resumes from bit-identically.

``repro serve`` is the CLI wrapper around :func:`serve_forever`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                              restore as restore_payload, save_checkpoint,
                              snapshot as take_snapshot)
from repro.core.config import DtlConfig, small_dtl_config
from repro.errors import AllocationError
from repro.exec.hashing import derive_seed, stable_hash
from repro.faults.plan import (CxlLinkFault, EccFault, FaultPlan,
                               MigrationAbortFault, PowerExitFault,
                               SmcCorruptionFault)
from repro.seeded import SeededConfig
from repro.server.admission import (AdmissionConfig, AdmissionController,
                                    Rejection)
from repro.server.protocol import (MAX_LINE_BYTES, ErrorCode, ProtocolError,
                                   decode_line, encode, error_response,
                                   ok_response, render_snapshot)
from repro.server.shards import (MAX_REQUEST_T_S, ControllerShard,
                                 TenantRecord, VmGone, shard_of)
from repro.telemetry import MetricsRegistry, Snapshot


def server_fault_plan(seed: int, shard: int) -> FaultPlan:
    """The always-on chaos plan for one shard.

    Sparser than the offline chaos soak (this runs for the server's
    whole life, not a bounded campaign): every fault family is present,
    scheduled by pure counter arithmetic so a replayed request tail
    re-fires identically.  Every spec but one fires for the shard's
    whole life; the migration-abort spec keeps
    :class:`MigrationAbortFault`'s default ``max_fires`` of 16, so a
    shard aborts sixteen copy steps (every fifth from the second) and
    none after.
    """
    plan_seed = derive_seed(seed, "server-shard", shard)
    return FaultPlan(seed=plan_seed, name=f"server-{seed}-shard{shard}",
                     specs=(
                         CxlLinkFault(start=13, period=211, retries=2,
                                      backoff_ns=40.0),
                         CxlLinkFault(start=97, period=499, kind="stall",
                                      stall_ns=400.0),
                         EccFault(start=29, period=307, bits=1),
                         EccFault(start=601, period=1811, bits=2),
                         SmcCorruptionFault(start=71, period=487),
                         MigrationAbortFault(start=1, period=5),
                         PowerExitFault(target="mpsm", period=3,
                                        kind="delay", delay_ns=800.0),
                         PowerExitFault(target="sr", period=3, kind="fail",
                                        delay_ns=1200.0, failures=2),
                     ))


@dataclass(frozen=True)
class ServerConfig(SeededConfig):
    """Everything a :class:`DtlServer` needs, in one replayable bag.

    Attributes:
        host / port: TCP listen address (port 0 picks an ephemeral
            port; the bound port is on :attr:`DtlServer.port`).
        num_shards: Independent single-writer controller shards.
        dtl: Per-shard controller config (every shard is identical); the
            chaos soak's default device.
        admission: Rate-limit / quota / backpressure knobs.
        chaos: Arm the always-on fault injector on every shard.
        telemetry_path: Exporter output file (None disables the task).
        telemetry_interval_s: Exporter period.
        checkpoint_path: Where drain persists state (None skips).
        seed: Derives each shard's fault plan.

    A shard's access period, pump grant and audit cadence are constants
    it shares with the chaos soak (:mod:`repro.server.shards`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    num_shards: int = 2
    dtl: DtlConfig = field(default_factory=small_dtl_config)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    chaos: bool = True
    telemetry_path: str | None = None
    telemetry_interval_s: float = 5.0
    checkpoint_path: str | None = None
    seed: int = 0

    def structure_hash(self) -> str:
        """Digest of the fields a checkpoint must agree on to restore.

        Listen address, telemetry paths, and intervals are deployment
        detail — a resumed server may move; shard count, controller
        config, admission limits, chaos arming and the seed its fault
        plans derive from are structural.
        """
        return stable_hash({
            "num_shards": self.num_shards,
            "dtl": self.dtl,
            "admission": self.admission,
            "chaos": self.chaos,
            "seed": self.seed,
        })


class DtlServer:
    """A live multi-tenant DTL service over sharded controllers."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        cfg = self.config
        self.metrics = MetricsRegistry()
        self.shards = [
            ControllerShard(
                index, cfg.dtl,
                fault_plan=(server_fault_plan(derive_seed(cfg.seed, 0), index)
                            if cfg.chaos else None),
                queue_depth=cfg.admission.queue_depth)
            for index in range(cfg.num_shards)]
        self.admission = AdmissionController(cfg.admission)
        self.tenants: dict[str, TenantRecord] = {}
        # Per-shard free host-ID pools (a controller's host table is
        # bounded by its address layout's max_hosts).
        self._free_hosts: list[list[int]] = [
            list(range(shard.controller.host_layout.max_hosts))
            for shard in self.shards]
        self.draining = False
        self._server: asyncio.base_events.Server | None = None
        self._telemetry_task: asyncio.Task | None = None
        self.port: int | None = None
        self._bind_counters()

    def _bind_counters(self) -> None:
        """(Re-)fetch the counter handles from :attr:`metrics`."""
        self._requests = self.metrics.counter("server.requests")
        self._accesses = self.metrics.counter("server.accesses")
        self._allocations = self.metrics.counter("server.allocations")
        self._frees = self.metrics.counter("server.frees")
        self._opened = self.metrics.counter("server.tenants_opened")
        self._closed = self.metrics.counter("server.tenants_closed")
        self._telemetry_writes = self.metrics.counter(
            "server.telemetry_writes")

    # -- lifecycle ---------------------------------------------------------

    async def start(self, serve_tcp: bool = True) -> None:
        """Spawn shard apply tasks (and the TCP listener + exporter)."""
        for shard in self.shards:
            shard.start()
        if serve_tcp:
            self._server = await asyncio.start_server(
                self.handle_connection, host=self.config.host,
                port=self.config.port, limit=MAX_LINE_BYTES)
            self.port = self._server.sockets[0].getsockname()[1]
        if self.config.telemetry_path is not None:
            self.write_telemetry()
            self._telemetry_task = asyncio.get_running_loop().create_task(
                self._telemetry_loop(), name="dtl-telemetry")

    async def drain(self) -> str | None:
        """Graceful shutdown: reject, flush, export, checkpoint.

        Returns the checkpoint path when one was written.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for shard in self.shards:
            await shard.stop()
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._telemetry_task
            self._telemetry_task = None
        if self.config.telemetry_path is not None:
            self.write_telemetry()
        if self.config.checkpoint_path is not None:
            self.write_checkpoint(self.config.checkpoint_path)
            return self.config.checkpoint_path
        return None

    # -- connection layer --------------------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One client connection: NDJSON frames in, responses out."""
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode(error_response(
                        ErrorCode.BAD_REQUEST,
                        f"frame exceeds {MAX_LINE_BYTES} bytes")))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_line(line)
                except ProtocolError as exc:
                    response = error_response(ErrorCode.BAD_REQUEST,
                                              str(exc))
                else:
                    response = await self.handle_request(request)
                writer.write(encode(response))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    # -- request dispatch --------------------------------------------------

    async def handle_request(self, request: dict[str, Any],
                             ) -> dict[str, Any]:
        """Serve one protocol request (transport-independent).

        This is the surface the TCP layer, the in-process load
        generator, and the drain/restore replay all share: given the
        same request sequence, a server produces the same responses and
        the same shard state — the determinism the soak pins down.
        """
        op = request.get("op")
        if not isinstance(op, str):
            return self._reject(request, Rejection(
                ErrorCode.BAD_REQUEST, "request has no 'op' field"))
        handler = self._HANDLERS.get(op)
        if handler is None:
            return self._reject(request, Rejection(
                ErrorCode.UNKNOWN_OP, f"unknown op {op!r}"))
        self._requests.inc()
        if self.draining and op != "stats":
            return self._reject(request, Rejection(
                ErrorCode.DRAINING, "server is draining"))
        try:
            return await handler(self, request)
        except _RequestError as exc:
            return self._reject(request, exc.rejection)
        except VmGone as exc:
            # Ownership held when the request was enqueued; a free (or
            # close) from another connection of the tenant got in first.
            return self._reject(request, Rejection(ErrorCode.NOT_OWNER,
                                                   str(exc)))
        except Exception as exc:  # noqa: BLE001 - fault barrier
            self.metrics.counter("server.internal_errors").inc()
            return error_response(ErrorCode.INTERNAL,
                                  f"{type(exc).__name__}: {exc}", request)

    def _reject(self, request: dict[str, Any],
                rejection: Rejection) -> dict[str, Any]:
        self.metrics.counter(
            f"server.rejected.{rejection.code.value}").inc()
        extra = ({}  if rejection.retry_after_s is None
                 else {"retry_after_s": rejection.retry_after_s})
        return error_response(rejection.code, rejection.message, request,
                              **extra)

    # -- field helpers -----------------------------------------------------

    @staticmethod
    def _time_of(request: dict[str, Any]) -> float | None:
        t = request.get("t")
        if t is None:
            return None
        # bool is an int subclass: JSON ``true`` is not a timestamp.
        # ``json`` reads Infinity, NaN, 1e400 and integers of any length;
        # a shard clock never runs backwards, so one would stay for every
        # tenant; 1e300 has no integer nanosecond; NaN fails the compare.
        if isinstance(t, bool) or not isinstance(t, (int, float)) \
                or not abs(t) <= MAX_REQUEST_T_S:
            raise _RequestError(Rejection(
                ErrorCode.BAD_REQUEST, "'t' must be a finite number of "
                f"seconds within {MAX_REQUEST_T_S:g} of 0"))
        return float(t)

    @staticmethod
    def _column_of(name: str, values: list, dtype: type) -> np.ndarray:
        """A request list as a flat ``dtype`` (``np.int64``/``bool``) array.

        numpy picks the dtype first, so a float, string, null, nested or
        beyond-int64 element shows up as a foreign dtype kind or a
        second dimension and is refused, rather than being coerced here
        or raising inside the shard.  A bool column also takes integers.
        """
        try:
            array = np.asarray(values)
        except (TypeError, ValueError):  # ragged nesting
            array = None
        kinds = "bi" if dtype is bool else "i"
        if array is None or array.ndim != 1 or array.dtype.kind not in kinds:
            wanted = "booleans or integers" if dtype is bool else "integers"
            raise _RequestError(Rejection(
                ErrorCode.BAD_REQUEST,
                f"'{name}' must be a flat list of {wanted} (signed 64-bit)"))
        return array.astype(dtype, copy=False)

    def _clock(self, t_s: float | None) -> float:
        """Admission clock: the request's logical time, else wall time."""
        return t_s if t_s is not None else time.monotonic()

    def _tenant_of(self, request: dict[str, Any]) -> TenantRecord:
        name = request.get("tenant")
        if not isinstance(name, str) or not name:
            raise _RequestError(Rejection(
                ErrorCode.BAD_REQUEST, "request has no 'tenant' field"))
        record = self.tenants.get(name)
        if record is None:
            raise _RequestError(Rejection(
                ErrorCode.UNKNOWN_TENANT, f"tenant {name!r} is not open"))
        return record

    def _rate_gate(self, record: TenantRecord, t_s: float | None,
                   cost: float = 1.0) -> None:
        rejection = self.admission.admit_request(
            record.name, self._clock(t_s), cost)
        if rejection is not None:
            raise _RequestError(rejection)

    # -- operations --------------------------------------------------------

    async def _op_open_tenant(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
        name = request.get("tenant")
        if not isinstance(name, str) or not name:
            raise _RequestError(Rejection(
                ErrorCode.BAD_REQUEST, "open_tenant needs 'tenant'"))
        t_s = self._time_of(request)
        record = self.tenants.get(name)
        if record is None:
            rejection = self.admission.admit_open(name, self._clock(t_s))
            if rejection is not None:
                raise _RequestError(rejection)
            shard_index = shard_of(name, self.config.num_shards)
            free_hosts = self._free_hosts[shard_index]
            if not free_hosts:
                self.admission.forget(name)
                raise _RequestError(Rejection(
                    ErrorCode.TENANT_LIMIT,
                    f"shard {shard_index} has no free host IDs"))
            record = TenantRecord(name=name, shard=shard_index,
                                  host_id=free_hosts.pop(0))
            self.tenants[name] = record
            self._opened.inc()
        return ok_response("open_tenant", request, tenant=name,
                           shard=record.shard, host_id=record.host_id,
                           quota_bytes=self.config.admission.quota_bytes)

    async def _op_allocate(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._tenant_of(request)
        t_s = self._time_of(request)
        num_bytes = request.get("bytes")
        if isinstance(num_bytes, bool) or not isinstance(num_bytes, int) \
                or num_bytes <= 0:
            raise _RequestError(Rejection(
                ErrorCode.BAD_REQUEST,
                "allocate needs a positive integer 'bytes'"))
        self._rate_gate(record, t_s)
        shard = self.shards[record.shard]
        reserve = shard.controller.aus_for_bytes(num_bytes) \
            * self.config.dtl.au_bytes
        rejection = self.admission.admit_reservation(record.name, reserve)
        if rejection is not None:
            raise _RequestError(rejection)
        try:
            vm = await shard.submit(shard.apply_allocate, record.host_id,
                                    num_bytes, t_s)
        except AllocationError as exc:
            raise _RequestError(Rejection(ErrorCode.CAPACITY, str(exc)))
        self.admission.reserve(record.name, vm.reserved_bytes)
        record.vm_ids.add(vm.vm_id)
        self._allocations.inc()
        segments = len(vm.au_ids) * shard.controller.host_layout \
            .segments_per_au
        return ok_response("allocate", request, vm=vm.vm_id,
                           bytes=vm.reserved_bytes, segments=segments)

    def _vm_of(self, record: TenantRecord,
               request: dict[str, Any]):
        vm_id = request.get("vm")
        if isinstance(vm_id, bool) or not isinstance(vm_id, int):
            raise _RequestError(Rejection(
                ErrorCode.BAD_REQUEST, "request needs an integer 'vm'"))
        if vm_id not in record.vm_ids:
            raise _RequestError(Rejection(
                ErrorCode.NOT_OWNER,
                f"VM {vm_id} does not belong to tenant {record.name!r}"))
        return self.shards[record.shard].vm_handle(vm_id)

    async def _op_free(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._tenant_of(request)
        t_s = self._time_of(request)
        vm = self._vm_of(record, request)
        self._rate_gate(record, t_s)
        shard = self.shards[record.shard]
        freed = await shard.submit(shard.apply_free, vm, t_s)
        self.admission.release(record.name, freed)
        record.vm_ids.discard(vm.vm_id)
        self._frees.inc()
        return ok_response("free", request, vm=vm.vm_id, freed=freed)

    async def _op_access_batch(self, request: dict[str, Any],
                               ) -> dict[str, Any]:
        record = self._tenant_of(request)
        t_s = self._time_of(request)
        vm = self._vm_of(record, request)
        shard = self.shards[record.shard]
        segments = request.get("segments")
        if not isinstance(segments, list) or not segments:
            raise _RequestError(Rejection(
                ErrorCode.BAD_REQUEST,
                "access_batch needs a non-empty 'segments' list"))
        n = len(segments)
        segment_array = self._column_of("segments", segments, np.int64)
        layout = shard.controller.host_layout
        limit = len(vm.au_ids) * layout.segments_per_au
        # Read as unsigned, a negative index is out of range too.
        if np.maximum.reduce(segment_array.view(np.uint64)) >= limit:
            raise _RequestError(Rejection(
                ErrorCode.OUT_OF_RANGE,
                f"segment index outside the VM's 0..{limit - 1} range"))
        lines = request.get("lines")
        if lines is None:
            line_array = np.zeros(n, dtype=np.int64)
        else:
            if not isinstance(lines, list) or len(lines) != n:
                raise _RequestError(Rejection(
                    ErrorCode.BAD_REQUEST,
                    "'lines' must match 'segments' in length"))
            line_array = self._column_of("lines", lines, np.int64)
            lines_per_segment = \
                shard.controller.geometry.segment_bytes // 64
            if np.maximum.reduce(line_array.view(np.uint64)) \
                    >= lines_per_segment:
                raise _RequestError(Rejection(
                    ErrorCode.OUT_OF_RANGE,
                    f"line index outside 0..{lines_per_segment - 1}"))
        writes = request.get("writes")
        if writes is None:
            write_array = np.zeros(n, dtype=bool)
        else:
            if not isinstance(writes, list) or len(writes) != n:
                raise _RequestError(Rejection(
                    ErrorCode.BAD_REQUEST,
                    "'writes' must match 'segments' in length"))
            write_array = self._column_of("writes", writes, bool)
        self._rate_gate(record, t_s, cost=self.admission.batch_cost(n))
        result = await shard.submit(shard.apply_access_batch, vm,
                                    segment_array, line_array, write_array,
                                    t_s)
        self._accesses.inc(n)
        return ok_response(
            "access_batch", request, n=n,
            total_latency_ns=result.total_latency_ns,
            wake_ns=float(result.wake_penalty_ns.sum()),
            smc_l1_hits=int(np.count_nonzero(result.smc_l1_hits)),
            smc_l2_hits=int(np.count_nonzero(result.smc_l2_hits)),
            redirected_writes=int(
                np.count_nonzero(result.routed_to_new_dsn)))

    async def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        return ok_response("stats", request,
                           snapshot=self.snapshot().to_dict())

    async def _op_close(self, request: dict[str, Any]) -> dict[str, Any]:
        record = self._tenant_of(request)
        t_s = self._time_of(request)
        shard = self.shards[record.shard]
        freed = 0
        for vm_id in sorted(record.vm_ids):
            with contextlib.suppress(VmGone):  # a racing free has it
                freed += await shard.submit(shard.apply_free,
                                            shard.vm_handle(vm_id), t_s)
        self.admission.release(record.name, freed)
        self.admission.forget(record.name)
        self._free_hosts[record.shard].append(record.host_id)
        del self.tenants[record.name]
        self._closed.inc()
        return ok_response("close", request, tenant=record.name,
                           freed=freed)

    _HANDLERS = {
        "open_tenant": _op_open_tenant,
        "allocate": _op_allocate,
        "free": _op_free,
        "access_batch": _op_access_batch,
        "stats": _op_stats,
        "close": _op_close,
    }

    # -- telemetry ---------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Server counters plus every shard's full controller snapshot."""
        self.metrics.gauge("server.tenants").set(len(self.tenants))
        self.metrics.gauge("server.draining").set(float(self.draining))
        violations = 0
        for shard in self.shards:
            prefix = f"server.shard.{shard.index}"
            self.metrics.gauge(f"{prefix}.queue_depth").set(
                shard.queue_depth)
            self.metrics.gauge(f"{prefix}.applied").set(shard.applied)
            self.metrics.gauge(f"{prefix}.audits").set(shard.audits)
            self.metrics.gauge(f"{prefix}.lookaheads").set(shard.lookaheads)
            self.metrics.gauge(f"{prefix}.lookahead_calls").set(
                shard.lookahead_calls)
            self.metrics.gauge(f"{prefix}.violations").set(
                len(shard.violations))
            violations += len(shard.violations)
        self.metrics.gauge("server.audit_violations").set(violations)
        detail = {
            "shards": {str(shard.index): shard.apply_stats()
                       for shard in self.shards},
            "tenants": {record.name: {
                "shard": record.shard, "host_id": record.host_id,
                "vms": sorted(record.vm_ids),
                "reserved_bytes":
                    self.admission.reserved_bytes(record.name)}
                for record in self.tenants.values()},
        }
        return self.metrics.snapshot(detail=detail)

    def write_telemetry(self) -> None:
        """Atomically export the current snapshot to the telemetry file."""
        path = self.config.telemetry_path
        if path is None:
            return
        document = render_snapshot(self.snapshot())
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory,
                                        suffix=".telemetry.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(document + "\n")
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
        self._telemetry_writes.inc()

    async def _telemetry_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.telemetry_interval_s)
            self.write_telemetry()

    # -- isolation / audits ------------------------------------------------

    def audit_violations(self) -> list[str]:
        """Every invariant violation any shard's audits have found."""
        violations: list[str] = []
        for shard in self.shards:
            violations.extend(
                f"shard {shard.index}: {violation}"
                for violation in shard.violations)
        return violations

    def leak_report(self) -> list[str]:
        """Cross-tenant leak scan: tenants' mapped DSNs must be disjoint.

        Segments being vacated by an in-flight background migration are
        exempt (the copy legitimately holds both endpoints until
        retirement); everything else overlapping is a leak.
        """
        leaks: list[str] = []
        for shard in self.shards:
            _, old_dsns, new_dsns = \
                shard.controller.migration.tracked_copies()
            inflight = set(old_dsns.tolist()) | set(new_dsns.tolist())
            owners: dict[int, str] = {}
            for record in self.tenants.values():
                if record.shard != shard.index:
                    continue
                for dsn in shard.dsns_of_host(record.host_id):
                    if dsn in inflight:
                        continue
                    previous = owners.get(dsn)
                    if previous is not None:
                        leaks.append(
                            f"shard {shard.index}: DSN {dsn:#x} mapped "
                            f"for both {previous!r} and {record.name!r}")
                    owners[dsn] = record.name
        return leaks

    # -- checkpoint / restore ----------------------------------------------

    @property
    def applied_total(self) -> int:
        """Requests applied across every shard since birth."""
        return sum(shard.applied for shard in self.shards)

    def write_checkpoint(self, path: str) -> None:
        """Persist the live server objects as one ``repro.checkpoint`` blob.

        One pickle, so every identity the shards rely on (injector and
        checker holding their controller, both power hosts sharing one
        policy, migration requests shared between queues and the
        conflict index) survives the round trip.  Safe on a started
        server: shards pickle without their asyncio queue and apply
        task, and nothing here awaits, so no request interleaves.
        """
        structure = self.config.structure_hash()
        payload = {
            "structure": structure,
            "shards": self.shards,
            "tenants": self.tenants,
            "admission": self.admission,
            "free_hosts": self._free_hosts,
            "metrics": self.metrics,
        }
        save_checkpoint(
            take_snapshot("server", self.applied_total, payload,
                          meta={"structure": structure,
                                "tenants": len(self.tenants)}),
            path)

    def restore(self, path: str) -> Checkpoint:
        """Adopt the state in a :meth:`write_checkpoint` file, or nothing.

        Call before :meth:`start`.  Every refusal — truncated or
        corrupt file, stale format version, a checkpoint of another
        kind, a structurally different :class:`ServerConfig` (which is
        also what gates the fault plan riding in the blob) — raises
        :class:`~repro.checkpoint.CheckpointError` before anything on
        this server is touched.
        """
        checkpoint = load_checkpoint(path)
        if checkpoint.kind != "server":
            raise CheckpointError(
                f"{path} holds a {checkpoint.kind!r} checkpoint, "
                "not a server state")
        payload = restore_payload(checkpoint)
        if payload["structure"] != self.config.structure_hash():
            raise CheckpointError(
                "checkpoint was taken by a structurally different server "
                "config (shards / geometry / admission / chaos / seed)")
        self.shards = payload["shards"]
        self.tenants = payload["tenants"]
        self.admission = payload["admission"]
        self._free_hosts = payload["free_hosts"]
        self.metrics = payload["metrics"]
        self._bind_counters()
        return checkpoint


class _RequestError(Exception):
    """Internal control flow: a typed rejection raised mid-handler."""

    def __init__(self, rejection: Rejection):
        super().__init__(rejection.message)
        self.rejection = rejection


async def _serve(config: ServerConfig, resume: bool) -> int:
    server = DtlServer(config)
    resumed_from = None
    if resume and config.checkpoint_path is not None \
            and os.path.exists(config.checkpoint_path):
        checkpoint = server.restore(config.checkpoint_path)
        resumed_from = checkpoint.step
    await server.start()
    if resumed_from is not None:
        print(f"resumed from {config.checkpoint_path!r} "
              f"({resumed_from} requests applied before drain)")
    print(f"repro.server listening on {config.host}:{server.port} "
          f"({config.num_shards} shard(s), chaos "
          f"{'armed' if config.chaos else 'off'})", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    print("drain: flushing shards...", flush=True)
    checkpoint_path = await server.drain()
    if checkpoint_path is not None:
        print(f"drain: state checkpointed to {checkpoint_path!r} "
              f"({server.applied_total} requests applied)")
    violations = server.audit_violations()
    for violation in violations[:10]:
        print(f"AUDIT VIOLATION: {violation}")
    return 1 if violations else 0


def serve_forever(config: ServerConfig, resume: bool = False) -> int:
    """Run a server until SIGTERM/SIGINT; returns a process exit code."""
    return asyncio.run(_serve(config, resume))


__all__ = ["server_fault_plan", "ServerConfig", "DtlServer",
           "serve_forever"]
