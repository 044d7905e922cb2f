/**
 * @file
 * Figure 5: ping latency vs. configured link latency.
 *
 * Methodology mirrors Section IV-A: boot an 8-node single-ToR cluster,
 * run 100 pings between two nodes per configured latency, discard the
 * first sample, and report the average RTT next to the "Ideal" line
 * (4 x link latency + 2 x 10-cycle switching latency). The measured
 * series must parallel the ideal line with a fixed offset — the Linux
 * stack + server overhead the paper reports as ~34 us.
 */

#include "apps/ping.hh"
#include "bench/common.hh"
#include "manager/checkpoint.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

using namespace firesim;

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv,
                            bench::Sharding::SingleProcessOnly);
    bench::banner("Figure 5", "Ping RTT vs configured link latency");
    TargetClock clk;
    Table t({"Link latency (us)", "Ideal RTT (us)", "Measured RTT (us)",
             "Overhead (us)"});

    const uint32_t pings = bench::fullScale() ? 100 : 40;
    double min_overhead = 1e9, max_overhead = 0;

    for (double lat_us : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
        Cycles lat = clk.cyclesFromUs(lat_us);
        ClusterConfig cc;
        cc.linkLatency = lat;
        bench::applyClusterFlags(cc);
        Cluster cluster(topologies::singleTor(8), cc);

        PingConfig pc;
        pc.dst = Cluster::ipFor(1);
        pc.count = pings + 1; // +1 discarded below
        pc.interval = clk.cyclesFromUs(10.0);
        PingResult result;
        launchPing(cluster.node(0), pc, &result);
        // Run until finished: RTT ~ (4*lat + overhead) per ping.
        double budget_us = (pings + 2) * (4 * lat_us + 60.0 + 10.0);
        bench::maybeResume(cluster);
        if (!bench::runClusterUs(cluster, budget_us))
            std::exit(0);
        if (!result.finished)
            fatal("ping run did not complete at %.1f us", lat_us);

        // Discard the first sample, as the paper does.
        Histogram steady;
        const auto &samples = result.rttCycles.samples();
        for (size_t i = 1; i < samples.size(); ++i)
            steady.sample(samples[i]);

        double ideal_us = clk.usFromCycles(4 * lat + 2 * 10);
        double meas_us = clk.usFromCycles(
            static_cast<Cycles>(steady.mean()));
        double overhead = meas_us - ideal_us;
        min_overhead = std::min(min_overhead, overhead);
        max_overhead = std::max(max_overhead, overhead);
        t.addRow({Table::fmt(lat_us, 1), Table::fmt(ideal_us, 2),
                  Table::fmt(meas_us, 2), Table::fmt(overhead, 2)});
    }

    std::printf("%s\n", t.render().c_str());
    std::printf("Measured series parallels the ideal line: overhead "
                "spread %.2f us (fixed offset expected).\n",
                max_overhead - min_overhead);
    std::printf("Software overhead ~%.1f us (%s).\n", max_overhead,
                bench::paperRef("~34 us, matching OS literature").c_str());
    return 0;
}
