"""Tests for the CXL link and the DTL controller as the CXL device."""

import pytest

from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.cxl import CxlLinkConfig
from repro.dram import DramGeometry, PowerState
from repro.dram.timing import CXL_MEMORY_LATENCY_NS, NATIVE_DRAM_LATENCY_NS
from repro.units import MIB


@pytest.fixture
def controller():
    return DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=256 * MIB), au_bytes=64 * MIB))


class TestLink:
    def test_default_end_to_end_matches_table1(self, controller):
        """The link's protocol latency over native DRAM is Table 1's
        CXL access latency, which the controller charges by default."""
        link = CxlLinkConfig()
        assert link.base_latency_ns + NATIVE_DRAM_LATENCY_NS == \
            pytest.approx(CXL_MEMORY_LATENCY_NS)
        assert controller.cxl_latency_ns == CXL_MEMORY_LATENCY_NS

    def test_access_latency_composition(self, controller):
        """One access costs the CXL end-to-end latency plus what its
        translation probed: an L1 hit adds only the L1 probe."""
        vm = controller.allocate_vm(0, 64 * MIB)
        hpa = controller.hpa_of(vm.au_ids[0], 0)
        result = controller.access_batch(0, [hpa, hpa])
        assert result.smc_l1_hits.tolist() == [False, True]
        assert result.latency_ns[1] == pytest.approx(
            CXL_MEMORY_LATENCY_NS
            + controller.translation.smc.config.l1_hit_ns)
        assert result.latency_ns[0] > result.latency_ns[1]

    def test_custom_base_latency(self):
        """A replay re-pays the link's own protocol latency."""
        link = CxlLinkConfig(base_latency_ns=50.0)
        assert link.replay_latency_ns(1) == pytest.approx(50.0)


class TestDevice:
    def test_allocate_and_load(self, controller):
        vm = controller.allocate_vm(0, 128 * MIB)
        hpa = controller.hpa_of(vm.au_ids[0], 0)
        result = controller.access_batch(0, [hpa])
        assert result.latency_ns[0] >= CXL_MEMORY_LATENCY_NS

    def test_store_goes_through_migration_check(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        hpa = controller.hpa_of(vm.au_ids[0], 1)
        result = controller.access_batch(0, [hpa], writes=[True])
        assert not result.routed_to_new_dsn[0]

    def test_deallocate_powers_down(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        controller.deallocate_vm(vm)
        assert controller.device.state_counts()[PowerState.MPSM] > 0

    def test_power_summary_keys(self, controller):
        """The rank census covers every power state."""
        counts = controller.device.state_counts()
        assert set(counts) == set(PowerState)
        assert sum(counts.values()) == len(controller.device.ranks)
