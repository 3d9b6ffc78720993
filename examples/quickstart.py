"""Quickstart: a DTL-equipped CXL memory device in twenty lines.

Creates the device's DTL controller, reserves memory for two VMs, issues
some loads/stores through the translation layer in one batch, then
deallocates one VM and watches the rank-level power-down policy park
idle rank-groups in MPSM.

Run:  python examples/quickstart.py
"""

from repro import DtlConfig, DtlController
from repro.dram import DramGeometry, PowerState
from repro.units import GIB, MIB, ns_to_s, s_to_ns

def census(controller: DtlController) -> str:
    counts = controller.device.state_counts()
    return ", ".join(f"{count} {state.value}"
                     for state, count in counts.items())

def main() -> None:
    # A small device: 4 channels x 8 ranks x 1 GiB = 32 GiB.
    geometry = DramGeometry(rank_bytes=1 * GIB)
    controller = DtlController(DtlConfig(geometry=geometry,
                                         au_bytes=512 * MIB))

    print(f"Device: {geometry.describe()}")
    print(f"Initial rank states: {census(controller)}")

    # Two tenants reserve memory (rounded up to allocation units).
    vm_a = controller.allocate_vm(host_id=0, reserved_bytes=4 * GIB)
    vm_b = controller.allocate_vm(host_id=1, reserved_bytes=2 * GIB)
    print(f"\nAllocated {vm_a.reserved_bytes // GIB} GiB for VM-A "
          f"(AUs {vm_a.au_ids}) and {vm_b.reserved_bytes // GIB} GiB "
          f"for VM-B")

    # Host loads/stores go through HPA -> DPA translation transparently:
    # a load, the same load again, and a store to the next cacheline.
    hpa = controller.hpa_of(vm_a.au_ids[0], au_offset=5, byte_offset=256)
    batch = controller.access_batch(0, [hpa, hpa, hpa + 64],
                                    writes=[False, False, True])
    print(f"\nLoad  HPA {hpa:#014x} -> DPA {batch.dpas[0]:#014x} "
          f"(channel {batch.channels[0]}, rank {batch.ranks[0]}) "
          f"in {batch.latency_ns[0]:.1f} ns (SMC miss walks the tables)")
    print(f"Load  again                         -> "
          f"{batch.latency_ns[1]:.1f} ns (L1 SMC hit)")
    print(f"Store HPA {batch.hpas[2]:#014x} -> rank {batch.ranks[2]} "
          f"in {batch.latency_ns[2]:.1f} ns")

    # Deallocate VM-A: the policy consolidates and powers down rank-groups.
    transitions = controller.deallocate_vm(vm_a, now_ns=s_to_ns(60.0))
    print(f"\nVM-A deallocated -> {len(transitions)} power transitions:")
    for transition in transitions:
        ranks = ", ".join(f"ch{c}r{r}" for c, r in transition.rank_ids)
        print(f"  t={ns_to_s(transition.time_ns):.0f}s  [{ranks}] -> "
              f"{transition.new_state.value} "
              f"(migrated {transition.migrated_bytes // MIB} MiB)")

    counts = controller.device.state_counts()
    print(f"\nFinal rank census: "
          f"{counts[PowerState.STANDBY]} standby, "
          f"{counts[PowerState.SELF_REFRESH]} self-refresh, "
          f"{counts[PowerState.MPSM]} MPSM")
    print(f"Background power: {controller.device.background_power():.2f} RSU "
          f"(vs {controller.device.power_model.baseline_background_power():.2f}"
          f" with every rank in standby)")

if __name__ == "__main__":
    main()
