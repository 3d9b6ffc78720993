"""Live rank retirement: a failing rank leaves the device, data intact.

A rank that starts throwing correctable errors is retired while its
tenants keep running: the DTL migrates the rank's live segments onto
healthy ranks, fences it from allocation and powers it off.  The hosts
see no change, because their HPAs still translate; only the device's
usable capacity shrinks by one rank.

Run:  python examples/rank_retirement.py
"""

from repro import DtlConfig, DtlController
from repro.dram import DramGeometry
from repro.units import GIB, MIB, s_to_ns

def show(controller: DtlController, label: str) -> None:
    counts = controller.device.state_counts()
    print(f"{label:<28s} reserved {controller.reserved_bytes() / GIB:5.1f} "
          f"GiB  power {controller.device.background_power():6.2f} RSU  "
          "ranks: " + " / ".join(f"{count} {state.value}"
                                  for state, count in counts.items()))

def tenant_hpas(controller: DtlController, vm) -> list[int]:
    """One cacheline in each segment of the VM's first AU."""
    return [controller.hpa_of(vm.au_ids[0], offset) for offset in range(8)]

def main() -> None:
    geometry = DramGeometry(rank_bytes=1 * GIB)
    controller = DtlController(DtlConfig(geometry=geometry,
                                         au_bytes=512 * MIB,
                                         group_granularity=2))
    print(f"Device: {geometry.describe()}\n")
    show(controller, "empty device")

    tenants = [controller.allocate_vm(host_id=index,
                                      reserved_bytes=(2 + index) * GIB,
                                      now_ns=s_to_ns(index))
               for index in range(4)]
    show(controller, "4 tenants placed")
    before = [controller.access_batch(vm.host_id, tenant_hpas(controller, vm))
              for vm in tenants]

    # A rank holding tenant data starts throwing correctable errors:
    # retire it live.
    victim = (int(before[0].channels[0]), int(before[0].ranks[0]))
    record = controller.retire_rank(*victim, now_ns=s_to_ns(20.0))
    print(f"\nRetired rank (ch{victim[0]}, r{victim[1]}): migrated "
          f"{record.migrated_segments} segments "
          f"({record.migrated_bytes / MIB:.0f} MiB) transparently")
    usable = controller.retirement.usable_bytes()
    print(f"Usable capacity now {usable / GIB:.0f} GiB "
          f"(was {geometry.total_bytes / GIB:.0f})")
    show(controller, "after rank retirement")

    # Every tenant's memory still translates, at the same HPAs, and none
    # of it lands on the retired rank.
    after = [controller.access_batch(vm.host_id, old.hpas, now_ns=21e9)
             for vm, old in zip(tenants, before)]
    for batch in after:
        assert not any((int(channel), int(rank)) == victim
                       for channel, rank in zip(batch.channels,
                                                batch.ranks))
    print(f"\nVM-0's HPA {before[0].hpas[0]:#x}: DPA "
          f"{before[0].dpas[0]:#x} -> {after[0].dpas[0]:#x} "
          f"(rank ch{after[0].channels[0]}, r{after[0].ranks[0]})")
    print("All tenants verified reachable after retirement.")

if __name__ == "__main__":
    main()
