"""Tests for the Azure-like VM trace generator (Figure 1)."""

import numpy as np
import pytest

from repro.host.scheduler import VmScheduler
from repro.units import GIB
from repro.workloads import azure
from repro.workloads.azure import AzureTraceConfig, generate_vm_trace
from repro.workloads.cloudsuite import PROFILES


class TestConfig:
    def test_defaults_match_paper_setup(self):
        config = AzureTraceConfig()
        assert config.num_vms == 400
        assert config.duration_s == 6 * 3600.0

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            AzureTraceConfig(vcpu_probs=(0.5, 0.5, 0.1, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            AzureTraceConfig(vcpu_values=(1, 2), vcpu_probs=(1.0,))

    @pytest.mark.parametrize("name", ["GIB_PER_VCPU", "LIFETIME_MINUTES"])
    def test_fixed_distributions_are_distributions(self, name):
        values = getattr(azure, f"{name}_VALUES")
        probs = getattr(azure, f"{name}_PROBS")
        assert len(values) == len(probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_moments(self):
        config = AzureTraceConfig()
        assert 2.0 < config.mean_vcpus() < 5.0
        assert config.mean_memory_bytes() > 4 * GIB
        assert 600.0 < config.mean_lifetime_s() < 3600.0


class TestGeneratedTrace:
    @pytest.fixture
    def specs(self):
        return generate_vm_trace(seed=0)

    def test_count(self, specs):
        assert len(specs) == 400

    def test_sorted_by_arrival(self, specs):
        arrivals = [spec.arrival_s for spec in specs]
        assert arrivals == sorted(arrivals)

    def test_lifetimes_multiple_of_five_minutes(self, specs):
        """The Azure dataset records lifetimes in 5-minute multiples."""
        for spec in specs:
            assert spec.lifetime_s % 300.0 == 0.0

    def test_memory_is_whole_gib_per_vcpu(self, specs):
        for spec in specs:
            assert spec.memory_bytes % (spec.vcpus * GIB) == 0

    def test_workloads_are_cloudsuite(self, specs):
        assert {spec.workload for spec in specs} <= set(PROFILES)

    def test_deterministic(self):
        a = generate_vm_trace(seed=42)
        b = generate_vm_trace(seed=42)
        assert [s.vm_name for s in a] == [s.vm_name for s in b]
        assert [s.memory_bytes for s in a] == [s.memory_bytes for s in b]

    def test_small_vms_dominate(self, specs):
        small = sum(1 for spec in specs if spec.vcpus <= 2)
        assert small / len(specs) > 0.5


class TestFigure1Headline:
    def test_mean_memory_usage_below_half(self):
        """Figure 1: average memory usage stays under 50 % of 384 GB."""
        fractions = []
        for seed in range(3):
            result = VmScheduler().run(generate_vm_trace(seed=seed))
            fractions.append(result.mean_memory_fraction())
        assert float(np.mean(fractions)) < 0.55
        assert float(np.mean(fractions)) > 0.30

    def test_usage_fluctuates(self):
        result = VmScheduler().run(generate_vm_trace(seed=0))
        values = [s.memory_bytes for s in result.samples]
        assert max(values) > 1.5 * (sum(values) / len(values))
