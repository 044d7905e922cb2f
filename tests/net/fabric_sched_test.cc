/**
 * @file
 * Round-scheduling tests for the fabric's parallel advance phase.
 *
 * Determinism matrix: the same topology run across {1, 2, 8} workers x
 * {monolithic, sliced switches} must produce bit-identical results —
 * delivered frames, token streams, switch statistics — and the same
 * holds under an active fault plan. A cluster-level variant asserts
 * the telemetry artifacts (stats.json, autocounter.csv, reports) stay
 * byte-identical across worker counts too. Striping advance units
 * across workers moves host work around, never simulated state.
 *
 * Dispatch contract: at every pool width each advance unit (monolithic
 * advance, sliced prologue, slice) runs exactly once per round, every
 * endpoint gets a measured cost after a parallel run, and the per-
 * worker load accounting (SchedTelemetry) computes its ratio right.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fault/injector.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/fabric.hh"
#include "switchmodel/switch.hh"
#include "tests/net/scripted_endpoint.hh"

namespace firesim
{
namespace
{

/** FNV-style hash of every transmitted batch in commit order (the
 *  same detector tests/net/fabric_parallel_test.cc uses). */
class StreamHashObserver : public FabricObserver
{
  public:
    uint64_t hash = 1469598103934665603ull;
    uint64_t transmits = 0;

    void
    onTransmit(size_t channel_idx, TokenBatch &batch) override
    {
        ++transmits;
        mix(channel_idx);
        mix(batch.start);
        mix(batch.len);
        for (const Flit &f : batch.flits) {
            mix(f.offset);
            mix(f.last ? 1 : 0);
            mix(f.size);
            for (uint8_t b : f.data)
                mix(b);
        }
    }

  private:
    void
    mix(uint64_t v)
    {
        hash ^= v;
        hash *= 1099511628211ull;
    }
};

struct RunDigest
{
    std::vector<std::pair<Cycles, size_t>> frames;
    uint64_t streamHash = 0;
    uint64_t transmits = 0;
    Cycles finalCycle = 0;
    uint64_t batchesMoved = 0;
    // Per-switch counters: in, out, dropped, bytes out, fault drops.
    std::vector<std::vector<uint64_t>> switchStats;
    uint64_t faultDropped = 0;
    uint64_t faultCorrupted = 0;

    bool
    operator==(const RunDigest &o) const
    {
        return frames == o.frames && streamHash == o.streamHash &&
               transmits == o.transmits && finalCycle == o.finalCycle &&
               batchesMoved == o.batchesMoved &&
               switchStats == o.switchStats &&
               faultDropped == o.faultDropped &&
               faultCorrupted == o.faultCorrupted;
    }
};

/**
 * The 10-endpoint two-switch topology from the parallel suite:
 * @p slice_ports 0 keeps the switches monolithic, 2 splits each 5-port
 * switch into 3 advance slices. Observers in @p observers attach
 * before finalize().
 */
struct TwoSwitchRig
{
    std::unique_ptr<Switch> swA;
    std::unique_ptr<Switch> swB;
    std::vector<std::unique_ptr<ScriptedEndpoint>> eps;
    TokenFabric fabric;

    TwoSwitchRig(uint32_t slice_ports,
                 std::vector<FabricObserver *> observers = {})
    {
        const Cycles lat = 200;
        SwitchConfig scfg;
        scfg.ports = 5; // 4 downlinks + trunk
        scfg.slicePorts = slice_ports;
        scfg.name = "swA";
        swA = std::make_unique<Switch>(scfg);
        scfg.name = "swB";
        swB = std::make_unique<Switch>(scfg);
        for (int i = 0; i < 8; ++i) {
            eps.push_back(
                std::make_unique<ScriptedEndpoint>(csprintf("n%d", i)));
            fabric.addEndpoint(eps.back().get());
        }
        fabric.addEndpoint(swA.get());
        fabric.addEndpoint(swB.get());
        for (uint32_t i = 0; i < 8; ++i)
            fabric.connect(eps[i].get(), 0, i < 4 ? swA.get() : swB.get(),
                           i % 4, lat);
        fabric.connect(swA.get(), 4, swB.get(), 4, lat);
        for (uint32_t i = 0; i < 8; ++i) {
            swA->addMacEntry(MacAddr(i + 1), i < 4 ? i : 4);
            swB->addMacEntry(MacAddr(i + 1), i < 4 ? 4 : i % 4);
        }
        for (FabricObserver *obs : observers)
            fabric.addObserver(obs);
        fabric.finalize();
    }
};

RunDigest
runFabric(unsigned hosts, uint32_t slice_ports, bool with_faults)
{
    StreamHashObserver stream;
    TwoSwitchRig rig(slice_ports, {&stream});
    TokenFabric &fabric = rig.fabric;
    fabric.setParallelHosts(hosts);

    if (slice_ports > 0) {
        // Vacuity guard: slicing actually decomposed the switches.
        EXPECT_GT(rig.swA->advanceSliceCount(), 1u);
        EXPECT_GT(fabric.advanceUnitCount(), fabric.endpointCount());
    }

    std::unique_ptr<FaultInjector> injector;
    if (with_faults) {
        FaultPlan plan;
        plan.withSeed(0xfab5eed)
            .dropPayload("n1", 0, 1000, 3000, 0.5)
            .portDown("swA", 2, 2000, 4200)
            .crashNode("n3", 2500, 4500);
        injector = std::make_unique<FaultInjector>(fabric, plan);
    }

    for (uint32_t i = 0; i < 8; ++i) {
        for (int wave = 0; wave < 3; ++wave) {
            EthFrame f1(MacAddr(((i + 1) % 8) + 1), MacAddr(i + 1),
                        EtherType::Raw,
                        std::vector<uint8_t>(40 + i * 11 + wave,
                                             uint8_t(i * 16 + wave)));
            EthFrame f3(MacAddr(((i + 3) % 8) + 1), MacAddr(i + 1),
                        EtherType::Raw,
                        std::vector<uint8_t>(60 + i * 7 + wave,
                                             uint8_t(i * 8 + wave)));
            rig.eps[i]->sendAt(15 + i * 5 + wave * 900, f1);
            rig.eps[i]->sendAt(450 + i * 5 + wave * 900, f3);
        }
    }

    fabric.run(6000);

    RunDigest d;
    for (auto &ep : rig.eps)
        for (auto &[cycle, frame] : ep->received)
            d.frames.emplace_back(cycle, frame.bytes.size());
    d.streamHash = stream.hash;
    d.transmits = stream.transmits;
    d.finalCycle = fabric.now();
    d.batchesMoved = fabric.batchesMoved();
    for (const Switch *sw : {rig.swA.get(), rig.swB.get()}) {
        const SwitchStats &st = sw->stats();
        d.switchStats.push_back({st.packetsIn.value(),
                                 st.packetsOut.value(),
                                 st.packetsDropped.value(),
                                 st.bytesOut.value(),
                                 st.faultPacketsDroppedOut.value()});
    }
    if (injector) {
        d.faultDropped = injector->flitsDropped();
        d.faultCorrupted = injector->flitsCorrupted();
    }
    return d;
}

using MatrixParam = std::tuple<unsigned /*hosts*/, uint32_t /*slicePorts*/>;

class SchedMatrix : public ::testing::TestWithParam<MatrixParam>
{
};

TEST_P(SchedMatrix, BitIdenticalToMonolithicSequential)
{
    auto [hosts, slice_ports] = GetParam();
    RunDigest ref = runFabric(1, 0, false);
    RunDigest got = runFabric(hosts, slice_ports, false);
    EXPECT_EQ(ref, got);
    EXPECT_EQ(ref.frames.size(), 8u * 2u * 3u);
    EXPECT_GT(ref.transmits, 0u);
}

TEST_P(SchedMatrix, BitIdenticalUnderFaultInjection)
{
    auto [hosts, slice_ports] = GetParam();
    RunDigest ref = runFabric(1, 0, true);
    RunDigest got = runFabric(hosts, slice_ports, true);
    EXPECT_EQ(ref, got);
    // The plan actually bit: payload was dropped and a port went down
    // (fault drops show up in the switch counters).
    EXPECT_GT(ref.faultDropped, 0u);
    uint64_t port_drops = 0;
    for (const auto &st : ref.switchStats)
        port_drops += st[4];
    EXPECT_GT(port_drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersSlicing, SchedMatrix,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(0u, 2u)),
    [](const ::testing::TestParamInfo<MatrixParam> &info) {
        return csprintf("w%u_%s", std::get<0>(info.param),
                        std::get<1>(info.param) ? "sliced" : "mono");
    });

TEST(SchedFabric, AdvanceUnitCountReflectsSlicing)
{
    // Every switch port must be wired before finalize(), so give the
    // 5-port switch one blade per port.
    auto build = [](uint32_t slice_ports, size_t &units,
                    uint32_t &slices) {
        SwitchConfig scfg;
        scfg.ports = 5;
        scfg.slicePorts = slice_ports;
        Switch sw(scfg);
        std::vector<std::unique_ptr<ScriptedEndpoint>> eps;
        TokenFabric fabric;
        fabric.addEndpoint(&sw);
        for (uint32_t p = 0; p < scfg.ports; ++p) {
            eps.push_back(std::make_unique<ScriptedEndpoint>(
                csprintf("e%u", p)));
            fabric.addEndpoint(eps.back().get());
            fabric.connect(eps.back().get(), 0, &sw, p, 100);
        }
        fabric.finalize();
        units = fabric.advanceUnitCount();
        slices = sw.advanceSliceCount();
    };

    size_t units = 0;
    uint32_t slices = 0;

    build(0, units, slices);
    EXPECT_EQ(slices, 1u); // 0 disables slicing
    EXPECT_EQ(units, 6u);  // one unit per endpoint

    build(2, units, slices);
    EXPECT_EQ(slices, 3u); // ceil(5 / 2)
    EXPECT_EQ(units, 8u);  // 5 blades + 3 switch slices

    build(8, units, slices);
    EXPECT_EQ(slices, 1u); // ports <= slicePorts: monolithic
    EXPECT_EQ(units, 6u);
}

/**
 * Counts every advance-unit execution through the advance and slice
 * brackets — one slot per monolithic endpoint, begin + one per slice
 * for a sliced one — and checks on the driving thread after each
 * round that every slot ran exactly once more.
 */
class UnitCountObserver : public FabricObserver
{
  public:
    void
    onAttach(TokenFabric &fabric) override
    {
        first.clear();
        size_t slots = 0;
        for (size_t i = 0; i < fabric.endpointCount(); ++i) {
            first.push_back(slots);
            uint32_t slices = fabric.endpointAt(i).advanceSliceCount();
            slots += slices > 1 ? slices + 1 : 1;
        }
        runs = std::vector<std::atomic<uint32_t>>(slots);
    }

    void
    onAdvanceStart(size_t idx, Cycles) override
    {
        runs[first[idx]].fetch_add(1, std::memory_order_relaxed);
    }

    void
    onSliceStart(size_t idx, int32_t slice, Cycles) override
    {
        // kBeginSlice (-1) lands on the endpoint's first slot.
        runs[first[idx] + static_cast<size_t>(slice + 1)].fetch_add(
            1, std::memory_order_relaxed);
    }

    void
    onRoundEnd(Cycles, uint64_t round) override
    {
        ++rounds;
        for (const auto &r : runs)
            if (r.load(std::memory_order_relaxed) != round + 1)
                ++badRounds;
    }

    size_t slots() const { return runs.size(); }

    std::vector<size_t> first; //!< endpoint -> its first slot
    std::vector<std::atomic<uint32_t>> runs;
    uint64_t rounds = 0;
    uint64_t badRounds = 0; //!< (round, slot) pairs off by any count
};

TEST(SchedFabric, EveryUnitRunsExactlyOncePerRoundAtEveryWidth)
{
    for (unsigned width : {1u, 2u, 4u}) {
        UnitCountObserver counter;
        TwoSwitchRig rig(2, {&counter});
        rig.fabric.setParallelHosts(width);
        // 8 blades + 2 switches x (begin + 3 slices).
        ASSERT_EQ(counter.slots(), 16u);

        rig.fabric.run(rig.fabric.quantum() * 25);
        EXPECT_EQ(counter.rounds, 25u) << "width " << width;
        EXPECT_EQ(counter.badRounds, 0u) << "width " << width;

        // The pool attributes every unit execution to one worker.
        uint64_t units_run = 0;
        for (const auto &w : rig.fabric.schedTelemetry().workers)
            units_run += w.unitsRun;
        EXPECT_EQ(units_run, width >= 2 ? 16u * 25u : 0u)
            << "width " << width;
    }
}

TEST(SchedFabric, ParallelRunMeasuresEveryEndpointCost)
{
    // No traffic: the idle blades are about as cheap as an advance
    // gets, so their samples can read 0 ns on a coarse clock. The
    // >= 1 ns clamp must still leave every endpoint with a positive,
    // measured cost.
    TwoSwitchRig rig(2);
    rig.fabric.setParallelHosts(2);
    rig.fabric.run(rig.fabric.quantum() * 20);
    for (size_t i = 0; i < rig.fabric.endpointCount(); ++i)
        EXPECT_GT(rig.fabric.endpointCostNs(i), 0.0)
            << rig.fabric.endpointAt(i).name();

    // Dropping back to one thread forgets the pool's measurements.
    rig.fabric.setParallelHosts(1);
    for (size_t i = 0; i < rig.fabric.endpointCount(); ++i)
        EXPECT_EQ(rig.fabric.endpointCostNs(i), 0.0);
}

TEST(SchedFabric, SingleThreadRunMeasuresNoCost)
{
    TwoSwitchRig rig(2);
    rig.fabric.run(rig.fabric.quantum() * 20);
    for (size_t i = 0; i < rig.fabric.endpointCount(); ++i)
        EXPECT_EQ(rig.fabric.endpointCostNs(i), 0.0)
            << rig.fabric.endpointAt(i).name();
}

TEST(SchedTelemetry, MaxMeanBusyRatioWeightsByRound)
{
    SchedTelemetry tel;
    tel.reset(2);
    // Hand-feed two rounds through the same path dispatch uses: the
    // roundBusy scratch is folded by endRound().
    tel.beginRound();
    tel.roundBusy[0] = 300;
    tel.roundBusy[1] = 100;
    tel.endRound();
    tel.beginRound();
    tel.roundBusy[0] = 100;
    tel.roundBusy[1] = 100;
    tel.endRound();
    // max sum = 300 + 100, total sum = 400 + 200 -> mean 300/round pair
    // => ratio = 400 / (600 / 2) = 4/3.
    EXPECT_EQ(tel.rounds, 2u);
    EXPECT_NEAR(tel.maxMeanBusyRatio(), 400.0 / 300.0, 1e-9);

    // Idle rounds (no busy time at all) must not dilute the ratio.
    tel.beginRound();
    tel.endRound();
    EXPECT_EQ(tel.rounds, 2u);
}

TEST(SchedTelemetry, MeanIsOverWorkersThatDidWork)
{
    // Regression: the ratio used to divide by the configured pool
    // width, so a round that used 2 of 4 workers looked 2x better
    // balanced than it was (and a perfectly even 1-of-4 round scored
    // an impossible 0.25-style ratio scaled to 4.0).
    SchedTelemetry tel;
    tel.reset(4);
    tel.beginRound();
    tel.roundBusy[0] = 300; // only one worker had any units
    tel.endRound();
    EXPECT_NEAR(tel.maxMeanBusyRatio(), 1.0, 1e-9);

    tel.beginRound();
    tel.roundBusy[0] = 300;
    tel.roundBusy[1] = 100; // two active: max 300, mean 200
    tel.endRound();
    // Cumulative: (300 + 300) / (300 + 200).
    EXPECT_NEAR(tel.maxMeanBusyRatio(), 600.0 / 500.0, 1e-9);
    EXPECT_EQ(tel.sumTotalBusyNs, 700u);
}

// ---- Cluster-level: telemetry artifacts stay byte-identical ---------

struct ClusterDigest
{
    std::vector<Cycles> rtts;
    Cycles finalCycle = 0;
    uint64_t batchesMoved = 0;
    std::string statsJson;
    std::string counterCsv;
    std::string statsReport;
};

ClusterDigest
runCluster(unsigned hosts)
{
    ClusterConfig cc;
    cc.parallelHosts = hosts;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 64000;
    cc.telemetry.hostProfile = true; // exercises onSliceStart/End
    auto cluster =
        std::make_unique<Cluster>(topologies::singleTor(8), cc);

    ClusterDigest d;
    d.rtts.assign(cluster->nodeCount(), 0);
    for (size_t i = 0; i < cluster->nodeCount(); ++i) {
        NodeSystem &n = cluster->node(i);
        size_t dst = (i + 1) % cluster->nodeCount();
        n.os().spawn("ping", -1, [&, i, dst]() -> Task<> {
            d.rtts[i] = co_await n.net().ping(Cluster::ipFor(dst));
        });
    }
    cluster->runUs(400.0);

    d.finalCycle = cluster->now();
    d.batchesMoved = cluster->fabric().batchesMoved();
    Telemetry *tel = cluster->telemetry();
    d.statsJson = tel->registry().dumpJson(cluster->now());
    d.counterCsv = tel->sampler()->csv();
    d.statsReport = cluster->statsReport();
    return d;
}

TEST(SchedCluster, TelemetryByteIdenticalAcrossWorkers)
{
    // The 8-port ToR splits into 2 egress slices at the default slice
    // width; the digest must match the single-threaded run (slices run
    // inline) at every worker count.
    ClusterDigest ref = runCluster(1);
    for (Cycles rtt : ref.rtts)
        EXPECT_GT(rtt, 0u);
    EXPECT_NE(ref.statsJson.find("framesTx"), std::string::npos);

    for (unsigned hosts : {2u, 4u}) {
        ClusterDigest got = runCluster(hosts);
        EXPECT_EQ(ref.rtts, got.rtts) << hosts << " workers";
        EXPECT_EQ(ref.finalCycle, got.finalCycle);
        EXPECT_EQ(ref.batchesMoved, got.batchesMoved);
        EXPECT_EQ(ref.statsJson, got.statsJson);
        EXPECT_EQ(ref.counterCsv, got.counterCsv);
        EXPECT_EQ(ref.statsReport, got.statsReport);
    }
}

} // namespace
} // namespace firesim
