/**
 * @file
 * Table I (server blade configuration) + Section III-A5 (FPGA
 * utilization): audits that the built blade matches the paper's
 * configuration and reports measured latency characteristics of the
 * cache/DRAM hierarchy plus the modeled FPGA utilization and
 * deployment economics.
 */

#include "bench/common.hh"
#include "host/deployment.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "mem/cache.hh"
#include "riscv/assembler.hh"
#include "riscv/core.hh"

using namespace firesim;

namespace
{

void
blladeConfigTable()
{
    BladeConfig bc;
    Table t({"Blade component", "This reproduction", "Paper (Table I)"});
    t.addRow({csprintf("%u RISC-V Rocket cores @ %.1f GHz", bc.cores,
                       bc.freqGhz),
              "cycle-level RV64IM model", "RTL"});
    t.addRow({"L1I$", "16 KiB, 4-way, 1-cycle hit", "16 KiB (RTL)"});
    t.addRow({"L1D$", "16 KiB, 4-way, 2-cycle hit", "16 KiB (RTL)"});
    t.addRow({"L2$", "256 KiB, 8-way, 12-cycle hit", "256 KiB (RTL)"});
    t.addRow({csprintf("%llu GiB DDR3",
                       (unsigned long long)(bc.memBytes / GiB)),
              "bank/row timing model", "FPGA timing model"});
    t.addRow({"200 Gbit/s Ethernet NIC", "timing+functional model", "RTL"});
    t.addRow({"Disk", "tracker/frontend model", "software model"});
    std::printf("%s\n", t.render().c_str());
}

void
memoryLatencyAudit()
{
    MemHierarchy hier(4);
    Table t({"Access", "Measured latency (cycles)", "Notes"});
    // Cold DRAM access through the whole hierarchy.
    Cycles cold = hier.data(0, 0x100000, 8, false, 0);
    // L1 hit.
    Cycles l1 = hier.data(0, 0x100000, 8, false, 1000);
    // L2 hit from another core (L1 miss).
    Cycles l2 = hier.data(1, 0x100000, 8, false, 2000);
    t.addRow({"L1D hit", Table::fmt(l1, 0), "pipelined in the core"});
    t.addRow({"L2 hit (remote core)", Table::fmt(l2, 0),
              "L1 miss + shared L2"});
    t.addRow({"DRAM (cold row)", Table::fmt(cold, 0),
              "L1+L2 miss + activate+CAS+burst"});
    t.addRow({"DRAM row hit", Table::fmt(hier.dram().rowHitLatency(), 0),
              "open-page policy"});
    std::printf("%s\n", t.render().c_str());
}

void
cpiAudit()
{
    // Run a small integer kernel on the core and report CPI, as a
    // single-node microarchitectural experiment (Section VIII).
    FunctionalMemory mem(16 * MiB);
    MemHierarchy hier(1);
    MmioBus bus;
    RocketCore core(CoreConfig{}, mem, hier, &bus);
    mapStandardDevices(bus, core);

    Assembler a(mem, memmap::kDramBase);
    using namespace regs;
    a.li(t0, 200000);
    Assembler::Label loop = a.newLabel();
    a.bind(loop);
    for (int i = 0; i < 12; ++i)
        a.addi(a0, a0, 3);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, loop);
    a.halt(a0);
    a.finalize();
    auto r = core.run();

    Table t({"Single-node kernel", "Instructions", "Cycles", "CPI"});
    t.addRow({"dependent ALU loop", Table::fmt(r.instret, 0),
              Table::fmt(r.cycles, 0),
              Table::fmt(static_cast<double>(r.cycles) / r.instret, 3)});
    std::printf("%s\n", t.render().c_str());
}

void
utilizationAndCost()
{
    Table t({"FPGA utilization (Section III-A5)", "LUTs"});
    t.addRow({"single node, total design",
              Table::fmt(100 * FpgaUtilization::kSingleNodeLuts, 1) + "%"});
    t.addRow({"single node, server-blade RTL alone",
              Table::fmt(100 * FpgaUtilization::kSingleNodeBladeLuts, 1) +
                  "%"});
    t.addRow({"supernode, four blades",
              Table::fmt(100 * FpgaUtilization::kSupernodeBladeLuts, 1) +
                  "%"});
    t.addRow({"supernode, total design",
              Table::fmt(100 * FpgaUtilization::kSupernodeTotalLuts, 1) +
                  "%"});
    std::printf("%s\n", t.render().c_str());

    SwitchSpec dc = topologies::threeLevel(4, 8, 32);
    DeploymentPlan plan = planDeployment(dc, true);
    std::printf("1024-node deployment: %s\n", plan.summary().c_str());
    std::printf("  spot:      $%.2f/hour   (%s)\n", plan.spotPerHour(),
                bench::paperRef("~$100/hour").c_str());
    std::printf("  on-demand: $%.2f/hour   (%s)\n", plan.onDemandPerHour(),
                bench::paperRef("~$440/hour").c_str());
    std::printf("  FPGA capex: $%.1fM      (%s)\n\n",
                plan.fpgaCapex() / 1e6, bench::paperRef("$12.8M").c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv, bench::Honours::None);
    bench::banner("Table I / Section III-A5",
                  "Server blade configuration, hierarchy audit, "
                  "utilization & cost");
    blladeConfigTable();
    memoryLatencyAudit();
    cpiAudit();
    utilizationAndCost();
    return 0;
}
