/**
 * @file
 * Fault-resilience benchmark: deterministic fault injection, graceful
 * degradation, and the simulation-rate cost of degraded hosts.
 *
 * FireSim's host platform guarantees lossless, ordered token transport
 * (Section III-B2), so target-visible failures never happen by
 * accident. This benchmark makes them happen *on purpose* and checks
 * the properties the fault layer promises:
 *
 *  1. Baseline: an 8-node single-ToR cluster completes a ping run.
 *  2. Lossy link: payload drops on the pinger's uplink lose pings but
 *     leave the fabric cycle-exact (the run neither hangs nor aborts).
 *  3. Node crash: a crashed destination degrades to empty-token
 *     emission; traffic between surviving nodes is unaffected.
 *  4. Port down: an administratively killed switch port counts its
 *     drops in the switch's fault counters.
 *  5. Determinism: the same topology + plan + seed replays to
 *     bit-identical stats and health reports.
 *  6. Host degradation: the retry/timeout/backoff model quantifies the
 *     simulation-rate cost of lossy batch transport on the host side.
 */

#include "apps/ping.hh"
#include "bench/common.hh"
#include "fault/fault_plan.hh"
#include "host/deployment.hh"
#include "host/perf_model.hh"
#include "manager/checkpoint.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

using namespace firesim;

namespace
{

struct ScenarioResult
{
    uint32_t pingsCompleted = 0;
    bool finished = false;
    uint64_t flitsDropped = 0;
    uint64_t faultEvents = 0;
    std::string stats;
    std::string health;
};

/**
 * Run one 8-node scenario: node @p src pings node @p dst under
 * @p plan for @p budget_us of target time.
 */
ScenarioResult
runScenario(const FaultPlan &plan, size_t src, size_t dst,
            uint32_t pings, double budget_us)
{
    TargetClock clk;
    ClusterConfig cc;
    bench::applyClusterFlags(cc);
    Cluster cluster(topologies::singleTor(8), cc);
    if (!plan.empty()) {
        // The benchmark prints its own tables; keep the per-event
        // warn() log quiet.
        HealthConfig hc;
        hc.logEvents = false;
        cluster.health(hc);
        cluster.injectFaults(plan);
    }

    PingConfig pc;
    pc.dst = Cluster::ipFor(dst);
    pc.count = pings;
    pc.interval = clk.cyclesFromUs(10.0);
    PingResult result;
    launchPing(cluster.node(src), pc, &result);
    bench::maybeResume(cluster);
    if (!bench::runClusterUs(cluster, budget_us))
        std::exit(0);

    ScenarioResult out;
    out.pingsCompleted =
        static_cast<uint32_t>(result.rttCycles.samples().size());
    out.finished = result.finished;
    if (cluster.injector())
        out.flitsDropped = cluster.injector()->flitsDropped();
    out.faultEvents = plan.empty() ? 0 : cluster.health().totalEvents();
    out.stats = cluster.statsReport();
    out.health = cluster.healthReport();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv,
                            bench::Sharding::SingleProcessOnly);
    bench::banner("Resilience", "Deterministic fault injection and "
                                "graceful degradation");
    TargetClock clk;
    const uint32_t pings = bench::fullScale() ? 50 : 20;
    const double budget_us = (pings + 4) * (10.0 + 4 * 2.0 + 60.0);
    bool ok = true;

    Table t({"Scenario", "Pings sent", "Pings completed", "Run finished",
             "Fault events"});

    // 1. Baseline: no faults.
    ScenarioResult base =
        runScenario(FaultPlan{}, 0, 1, pings, budget_us);
    t.addRow({"baseline", Table::fmt(pings, 0),
              Table::fmt(base.pingsCompleted, 0),
              base.finished ? "yes" : "no", "0"});
    ok &= base.finished && base.pingsCompleted == pings;

    // 2. Lossy link: drop every payload flit leaving node0 from 200 us
    //    on. Pings sent before the window completes; later pings lose
    //    their echo request and the pinger (which, like real ping -c,
    //    waits for each reply) blocks — but the *fabric* keeps cycling:
    //    the run must neither hang nor abort.
    FaultPlan lossy;
    lossy.dropPayload("node0", 0, clk.cyclesFromUs(200.0));
    ScenarioResult drop = runScenario(lossy, 0, 1, pings, budget_us);
    t.addRow({"lossy uplink (t>200us)", Table::fmt(pings, 0),
              Table::fmt(drop.pingsCompleted, 0),
              drop.finished ? "yes" : "no",
              Table::fmt(drop.faultEvents, 0)});
    ok &= !drop.finished && drop.pingsCompleted < pings &&
          drop.flitsDropped > 0;

    // 3. Node crash with graceful degradation: crash node1 from cycle 0
    //    while node0 pings node2. The crashed node emits empty token
    //    batches, so the survivors' traffic is untouched.
    FaultPlan crash;
    crash.crashNode("node1", 0);
    ScenarioResult surv = runScenario(crash, 0, 2, pings, budget_us);
    t.addRow({"node1 crashed, ping 0->2", Table::fmt(pings, 0),
              Table::fmt(surv.pingsCompleted, 0),
              surv.finished ? "yes" : "no",
              Table::fmt(surv.faultEvents, 0)});
    ok &= surv.finished && surv.pingsCompleted == pings;

    // 4. Port down: kill the ToR port facing node1 at 100 us; frames
    //    toward (and from) node1 drop at the switch.
    FaultPlan pdown;
    pdown.portDown("switch0", 1, clk.cyclesFromUs(100.0));
    ScenarioResult port = runScenario(pdown, 0, 1, pings, budget_us);
    t.addRow({"ToR port 1 down (t>100us)", Table::fmt(pings, 0),
              Table::fmt(port.pingsCompleted, 0),
              port.finished ? "yes" : "no",
              Table::fmt(port.faultEvents, 0)});
    ok &= !port.finished && port.pingsCompleted < pings;

    std::printf("%s\n", t.render().c_str());

    // 5. Determinism: replay the lossy scenario with the same plan and
    //    seed — stats and health reports must match bit for bit.
    ScenarioResult replay = runScenario(lossy, 0, 1, pings, budget_us);
    bool identical = replay.stats == drop.stats &&
                     replay.health == drop.health &&
                     replay.flitsDropped == drop.flitsDropped;
    std::printf("Deterministic replay (same plan + seed): %s\n",
                identical ? "bit-identical" : "MISMATCH");
    ok &= identical;

    std::printf("\nPost-crash health report (scenario 3):\n%s\n",
                surv.health.c_str());

    // 6. Host-side degradation: the simulation-rate cost of lossy batch
    //    transport under the retry/timeout/backoff model, on the
    //    64-node two-level cluster of Figure 1.
    SwitchSpec topo = topologies::twoLevel(8, 8);
    DeploymentPlan dplan = planDeployment(topo, /*supernode=*/false);
    const Cycles quantum = 6400; // 2 us links, the paper's default
    SimRateEstimate clean =
        estimateSimRate(topo, dplan, quantum, 3.2);

    Table h({"Batch loss prob", "Retry cost (us)", "Rate (MHz)",
             "Slowdown vs clean"});
    h.addRow({"0 (clean)", "0.00", Table::fmt(clean.targetMhz, 2),
              "1.00x"});
    double prev_mhz = clean.targetMhz;
    for (double p : {0.001, 0.01, 0.05, 0.1, 0.25}) {
        HostFaultParams hf;
        hf.batchLossProb = p;
        hf.degradedHosts = 1;
        SimRateEstimate est = estimateSimRateDegraded(
            topo, dplan, quantum, 3.2, HostPerfParams{}, hf);
        h.addRow({Table::fmt(p, 3), Table::fmt(expectedRetryUs(hf), 2),
                  Table::fmt(est.targetMhz, 2),
                  Table::fmt(clean.targetMhz / est.targetMhz, 2) + "x"});
        ok &= est.targetMhz < prev_mhz;
        prev_mhz = est.targetMhz;
    }
    std::printf("Host-transport degradation, 64 nodes @ 2 us links "
                "(%s):\n%s\n",
                bench::paperRef("lossless transport assumed, Sec III-B2")
                    .c_str(),
                h.render().c_str());

    std::printf("Resilience properties: %s\n",
                ok ? "ALL HOLD" : "VIOLATED");
    return ok ? 0 : 1;
}
