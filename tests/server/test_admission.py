"""Admission control: token buckets, quotas, and checkpoint round trips."""

from repro.checkpoint import restore, snapshot
from repro.server.admission import (AdmissionConfig, AdmissionController,
                                    TokenBucket)
from repro.server.protocol import ErrorCode


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now_s=0.0)
        assert bucket.admit(0.0) == 0.0
        assert bucket.admit(0.0) == 0.0
        retry = bucket.admit(0.0)
        assert retry > 0.0  # empty: carries the wait, consumes nothing
        assert bucket.admit(retry) == 0.0  # refilled exactly on time

    def test_refill_is_capped_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now_s=0.0)
        for _ in range(3):
            assert bucket.admit(1000.0) == 0.0
        assert bucket.admit(1000.0) > 0.0

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, now_s=10.0)
        assert bucket.admit(10.0) == 0.0
        bucket.admit(5.0)  # stale timestamp earns no refill
        assert bucket.tokens == 0.0
        assert bucket.updated_s == 10.0

    def test_determinism_same_stream_same_decisions(self):
        stream = [(0.0, 1.0), (0.01, 2.0), (0.02, 1.0), (5.0, 1.0)]
        a = TokenBucket(rate=100.0, burst=2.0)
        b = TokenBucket(rate=100.0, burst=2.0)
        assert [a.admit(t, c) for t, c in stream] \
            == [b.admit(t, c) for t, c in stream]

    def test_state_round_trip(self):
        bucket = TokenBucket(rate=10.0, burst=5.0, now_s=1.0)
        bucket.admit(2.0, cost=3.0)
        clone = restore(snapshot("bucket", 0, bucket))
        stream = [(2.0, 3.0), (2.0, 1.0), (2.05, 1.0), (3.0, 5.0)]
        assert [clone.admit(t, c) for t, c in stream] \
            == [bucket.admit(t, c) for t, c in stream]


class TestAdmissionController:
    def controller(self, **changes) -> AdmissionController:
        return AdmissionController(AdmissionConfig(**changes))

    def test_tenant_limit(self):
        admission = self.controller(max_tenants=2)
        assert admission.admit_open("a", 0.0) is None
        assert admission.admit_open("b", 0.0) is None
        rejection = admission.admit_open("c", 0.0)
        assert rejection.code is ErrorCode.TENANT_LIMIT
        # Re-attach of a registered tenant is always free.
        assert admission.admit_open("a", 0.0) is None

    def test_rate_limit_carries_retry_after(self):
        admission = self.controller(rate_per_s=10.0, burst=1.0)
        admission.admit_open("a", 0.0)
        assert admission.admit_request("a", 0.0) is None
        rejection = admission.admit_request("a", 0.0)
        assert rejection.code is ErrorCode.RATE_LIMITED
        assert rejection.retry_after_s > 0.0

    def test_unknown_tenant_is_rejected(self):
        rejection = self.controller().admit_request("ghost", 0.0)
        assert rejection.code is ErrorCode.UNKNOWN_TENANT

    def test_batch_cost_scales_with_accesses(self):
        admission = self.controller(batch_cost_divisor=256)
        assert admission.batch_cost(1) == 1.0
        assert admission.batch_cost(256) == 2.0
        assert admission.batch_cost(1024) == 5.0

    def test_quota_gate_and_release(self):
        admission = self.controller(quota_bytes=100)
        admission.admit_open("a", 0.0)
        assert admission.admit_reservation("a", 80) is None
        admission.reserve("a", 80)
        rejection = admission.admit_reservation("a", 30)
        assert rejection.code is ErrorCode.QUOTA_EXCEEDED
        admission.release("a", 50)
        assert admission.admit_reservation("a", 30) is None
        assert admission.reserved_bytes("a") == 30

    def test_forget_frees_the_slot(self):
        admission = self.controller(max_tenants=1)
        admission.admit_open("a", 0.0)
        admission.forget("a")
        assert admission.admit_open("b", 0.0) is None

    def test_state_round_trip(self):
        admission = self.controller(rate_per_s=10.0, burst=2.0)
        admission.admit_open("a", 0.0)
        admission.admit_request("a", 0.0)
        admission.reserve("a", 64)
        clone = restore(snapshot("admission", 0, admission))
        for t_s in (0.0, 0.0, 0.05, 1.0):
            assert clone.admit_request("a", t_s) == \
                admission.admit_request("a", t_s)
        for num_bytes in (32, 10 ** 12):
            assert clone.admit_reservation("a", num_bytes) == \
                admission.admit_reservation("a", num_bytes)
        assert clone.reserved_bytes("a") == admission.reserved_bytes("a") == 64
