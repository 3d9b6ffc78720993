"""Datacenter roll-up: from rank power-down to annual dollars.

Runs the Figure 12 experiment across a small rack-organised fleet of
heterogeneous pool nodes — consecutive nodes share one pooled-memory
fabric whose contention is modelled per rack — then pushes the
fleet-level DRAM saving through the TCO model the paper's introduction
motivates (DRAM ~38 % of server power).

Run:  python examples/datacenter_tco.py [num_nodes]

``REPRO_EXEC_WORKERS=N`` (or an explicit ``ExecConfig``) runs the nodes
on a process pool; the result is bit-identical either way.
"""

import sys

from repro.analysis.tco import TcoModel
from repro.host.scheduler import SchedulerConfig
from repro.sim.fleet import FleetSimulator, RackConfig
from repro.sim.powerdown_sim import PowerDownSimConfig
from repro.workloads.azure import AzureTraceConfig

def main() -> None:
    num_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    print(f"Simulating {num_nodes} pool nodes (1-hour schedules)...\n")
    node = PowerDownSimConfig(
        azure=AzureTraceConfig(num_vms=60, duration_s=3600.0),
        scheduler=SchedulerConfig(duration_s=3600.0))
    fleet = FleetSimulator(RackConfig(num_nodes=num_nodes, node=node,
                                      hosts_per_rack=2)).run()

    print(f"{'node':<8s} {'DRAM savings':>13s} {'mean ranks/ch':>14s}")
    for row in fleet.summary_rows():
        print(f"{row[0]:<8s} {row[1]:>13s} {row[2]:>14s}")

    rack = fleet.rack_report()
    print(f"\nShared-fabric contention across {rack['num_racks']:.0f} "
          f"rack(s):")
    print(f"  mean pool slowdown:   {rack['mean_pool_slowdown']:.4f}x "
          f"(max utilization {rack['max_pool_utilization']:.1%})")
    print(f"  contended savings:    {rack['contended_fleet_savings']:.1%} "
          f"(uncontended {rack['fleet_savings']:.1%})")

    tco = TcoModel()  # 10k servers, 38% DRAM share, PUE 1.2, $0.08/kWh
    report = fleet.tco_report()
    print(f"\nTCO roll-up for a {tco.num_servers:,}-server fleet "
          f"(DRAM = {tco.dram_power_share:.0%} of server power, "
          f"PUE {tco.pue}):")
    print(f"  per-server wall power saved: "
          f"{report['server_power_saved_w']:.1f} W "
          f"({report['server_share_saved']:.1%} of server power)")
    print(f"  facility power saved:        "
          f"{report['fleet_power_saved_kw']:.0f} kW")
    print(f"  annual energy saved:         "
          f"{report['annual_energy_saved_mwh']:.0f} MWh")
    print(f"  annual cost saved:           "
          f"${report['annual_cost_saved_usd']:,.0f}")
    print("\n(The paper's headline 31.6% DRAM saving corresponds to "
          f"~{TcoModel().server_share_saved(0.316):.0%} of total server "
          "power — Section 1's TCO motivation.)")

if __name__ == "__main__":
    main()
