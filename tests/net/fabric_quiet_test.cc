/**
 * @file
 * Tests for the fabric's idle fast path.
 *
 * An endpoint with only empty input batches and nothing of its own due
 * before the window ends is not called: the fabric forwards its empty
 * inputs as its outputs and moves its clock with idleTo(). The fast
 * path must be invisible to the simulation, so the main test is a
 * differential one: a blades + switches rig runs once with the real
 * nextActivity() and once with subclasses that always report busy, and
 * every transmitted batch, every switch counter and every blade clock
 * must agree. The other tests pin the corner cases: a flit reaching a
 * quiet blade, an event scheduled on an idle blade between run() calls,
 * and a quiet blade that goes down.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "net/fabric.hh"
#include "node/server_blade.hh"
#include "switchmodel/switch.hh"

namespace firesim
{
namespace
{

/** Disables the fast path for one endpoint type: never quiet. */
template <class Base>
class AlwaysBusy : public Base
{
  public:
    using Base::Base;
    Cycles nextActivity() const override { return 0; }
};

/** Flattens every transmitted batch, in commit order, and counts the
 *  advance brackets per endpoint. */
class RecordingObserver : public FabricObserver
{
  public:
    std::vector<uint64_t> stream;
    std::vector<uint64_t> advances;

    void
    onAttach(TokenFabric &fabric) override
    {
        advances.assign(fabric.endpointCount(), 0);
    }

    void
    onAdvanceStart(size_t idx, Cycles) override
    {
        ++advances[idx];
    }

    void
    onTransmit(size_t channel_idx, TokenBatch &batch) override
    {
        stream.push_back(channel_idx);
        stream.push_back(batch.start);
        stream.push_back(batch.len);
        for (const Flit &f : batch.flits) {
            uint64_t data = 0;
            std::memcpy(&data, f.data.data(), sizeof(data));
            stream.push_back(f.offset | uint64_t(f.size) << 32 |
                             uint64_t(f.last) << 40);
            stream.push_back(data);
        }
    }
};

constexpr Cycles kLatency = 400;
constexpr size_t kBlades = 6;

/**
 * Six blades on two 4-port switches joined by a trunk: b0..b2 on sw0,
 * b3..b5 on sw1, MAC i+1 for blade i. @p busy builds the always-busy
 * twin. Every blade posts receive buffers and raises interrupts into
 * a per-blade log, so receives schedule events like an OS would.
 */
struct BladeRig
{
    std::vector<std::unique_ptr<ServerBlade>> blades;
    std::vector<std::unique_ptr<Switch>> switches;
    std::vector<std::vector<Cycles>> interrupts;
    RecordingObserver recorder;
    std::unique_ptr<FaultInjector> injector;
    TokenFabric fabric;

    explicit BladeRig(bool busy, unsigned hosts = 1,
                      const FaultPlan *plan = nullptr)
    {
        interrupts.resize(kBlades);
        for (size_t i = 0; i < kBlades; ++i) {
            BladeConfig bc;
            bc.name = csprintf("b%zu", i);
            bc.memBytes = 16 * MiB;
            bc.mac = MacAddr(i + 1);
            if (busy)
                blades.push_back(
                    std::make_unique<AlwaysBusy<ServerBlade>>(bc));
            else
                blades.push_back(std::make_unique<ServerBlade>(bc));
            ServerBlade &b = *blades.back();
            for (uint64_t r = 0; r < 8; ++r)
                b.nic().pushRecvRequest(0x100000 + r * 0x1000);
            b.nic().setInterruptHandler([this, &b, i] {
                interrupts[i].push_back(b.eventQueue().now());
                while (b.nic().popRecvComp())
                    ;
                while (b.nic().popSendComp())
                    ;
            });
            fabric.addEndpoint(&b);
        }
        for (int s = 0; s < 2; ++s) {
            SwitchConfig sc;
            sc.name = csprintf("sw%d", s);
            sc.ports = 4;
            if (busy)
                switches.push_back(std::make_unique<AlwaysBusy<Switch>>(sc));
            else
                switches.push_back(std::make_unique<Switch>(sc));
            fabric.addEndpoint(switches.back().get());
        }
        for (size_t i = 0; i < kBlades; ++i)
            fabric.connect(blades[i].get(), 0, switches[i / 3].get(),
                           static_cast<uint32_t>(i % 3), kLatency);
        fabric.connect(switches[0].get(), 3, switches[1].get(), 3,
                       kLatency);
        for (size_t i = 0; i < kBlades; ++i) {
            switches[0]->addMacEntry(MacAddr(i + 1),
                                     i < 3 ? static_cast<uint32_t>(i) : 3);
            switches[1]->addMacEntry(
                MacAddr(i + 1), i < 3 ? 3 : static_cast<uint32_t>(i - 3));
        }
        fabric.addObserver(&recorder);
        fabric.finalize();
        fabric.setParallelHosts(hosts);
        if (plan)
            injector = std::make_unique<FaultInjector>(fabric, *plan);
    }

    /** Stage a @p payload-byte frame from blade @p from to blade @p to
     *  and queue it on the sender's NIC. */
    void
    send(size_t from, size_t to, uint32_t payload, uint64_t addr)
    {
        EthFrame f(MacAddr(to + 1), MacAddr(from + 1), EtherType::Raw,
                   std::vector<uint8_t>(payload, uint8_t(from * 16 + to)));
        blades[from]->memory().write(addr, f.bytes.data(), f.size());
        ASSERT_TRUE(blades[from]->nic().pushSendRequest(addr, f.size()));
    }

    std::vector<Cycles>
    clocks() const
    {
        std::vector<Cycles> c;
        for (const auto &b : blades)
            c.push_back(b->eventQueue().now());
        return c;
    }

    std::vector<uint64_t>
    switchStats() const
    {
        std::vector<uint64_t> v;
        for (const auto &sw : switches) {
            const SwitchStats &st = sw->stats();
            for (const Counter *c :
                 {&st.packetsIn, &st.packetsOut, &st.packetsDropped,
                  &st.bytesIn, &st.bytesOut, &st.broadcasts,
                  &st.faultFlitsDroppedIn, &st.faultPacketsDroppedOut})
                v.push_back(c->value());
        }
        return v;
    }

    uint64_t
    totalAdvances() const
    {
        uint64_t n = 0;
        for (uint64_t a : recorder.advances)
            n += a;
        return n;
    }
};

/** What one scenario leaves behind, for the differential compare. */
struct Outcome
{
    std::vector<uint64_t> stream;
    std::vector<uint64_t> switchStats;
    std::vector<std::vector<Cycles>> clocks; //!< after every run()
    std::vector<std::vector<Cycles>> interrupts;
    uint64_t batches = 0;
    uint64_t advances = 0;
    uint64_t rounds = 0;
};

/**
 * Idle stretches, traffic across the trunk and inside one switch, a
 * rate-limited frame, a send started by an event scheduled on an idle
 * blade, and a back-to-back burst — split over several run() calls.
 */
Outcome
runScenario(bool busy, unsigned hosts, const FaultPlan *plan = nullptr)
{
    BladeRig rig(busy, hosts, plan);
    Outcome o;
    auto step = [&](Cycles cycles) {
        rig.fabric.run(cycles);
        o.clocks.push_back(rig.clocks());
    };

    step(3000);
    rig.send(0, 4, 200, 0x10000);
    rig.send(2, 1, 64, 0x10000);
    // Rate-limited to 1/8 of line rate, this frame's flits leave over
    // four windows with no event in the middle two: only the NIC's
    // queued TX flits keep b2 awake there.
    rig.blades[2]->nic().setRateLimit(1, 8);
    rig.send(2, 5, 1500, 0x20000);
    step(6000);
    ServerBlade &b5 = *rig.blades[5];
    b5.eventQueue().schedule(b5.eventQueue().now() + 3333,
                             [&rig] { rig.send(5, 0, 500, 0x20000); });
    step(10000);
    for (uint64_t k = 0; k < 4; ++k)
        rig.send(3, 1, 900, 0x30000 + k * 0x1000);
    step(4000);
    step(20000);

    o.stream = rig.recorder.stream;
    o.switchStats = rig.switchStats();
    o.interrupts = rig.interrupts;
    o.batches = rig.fabric.batchesMoved();
    o.advances = rig.totalAdvances();
    o.rounds = rig.fabric.round();
    return o;
}

void
expectSameSimulation(const Outcome &quiet, const Outcome &busy)
{
    EXPECT_EQ(quiet.stream, busy.stream);
    EXPECT_EQ(quiet.switchStats, busy.switchStats);
    EXPECT_EQ(quiet.clocks, busy.clocks);
    EXPECT_EQ(quiet.interrupts, busy.interrupts);
    EXPECT_EQ(quiet.batches, busy.batches);
    EXPECT_EQ(quiet.rounds, busy.rounds);
}

TEST(FabricQuiet, MatchesAlwaysBusyTwinAtEveryWidth)
{
    Outcome busy = runScenario(true, 1);
    // Vacuity guards: traffic flowed, and the twin really never
    // skipped while the fast path really did.
    EXPECT_GT(busy.switchStats[1], 0u); // sw0 packetsOut
    EXPECT_GT(busy.switchStats[8 + 1], 0u);
    EXPECT_EQ(busy.advances, busy.rounds * (kBlades + 2));
    for (const std::vector<Cycles> &c : busy.interrupts)
        EXPECT_FALSE(c.empty());

    for (unsigned hosts : {1u, 2u, 4u}) {
        Outcome quiet = runScenario(false, hosts);
        expectSameSimulation(quiet, busy);
        EXPECT_LT(quiet.advances, busy.advances / 2) << hosts;
    }
}

TEST(FabricQuiet, MatchesAlwaysBusyTwinUnderFaults)
{
    // b4 crashes while idle and restarts; a trunk port goes down under
    // traffic. A quiet blade that goes down must catch its clock up
    // first, exactly where an advanced one would be.
    FaultPlan plan;
    plan.withSeed(7)
        .crashNode("b4", 2000, 12000)
        .crashNode("b1", 26000)
        .portDown("sw1", 3, 9500, 15000);
    Outcome busy = runScenario(true, 1, &plan);
    EXPECT_GT(busy.switchStats[8 + 6] + busy.switchStats[8 + 7], 0u);
    for (unsigned hosts : {1u, 4u}) {
        Outcome quiet = runScenario(false, hosts, &plan);
        expectSameSimulation(quiet, busy);
        EXPECT_LT(quiet.advances, busy.advances / 2) << hosts;
    }
}

TEST(FabricQuiet, FlitReachingAQuietBladeArrivesOnTime)
{
    // b3 has nothing to do until b0's frame reaches it: it is skipped
    // every round before, then must see each flit at its exact cycle.
    // Its receive interrupt fires when the frame's DMA retires, so the
    // interrupt cycle pins the delivery cycle.
    std::vector<Cycles> want, got;
    uint64_t b3_advances = 0, rounds = 0;
    for (bool busy : {true, false}) {
        BladeRig rig(busy);
        rig.fabric.run(4000);
        rig.send(0, 3, 300, 0x10000);
        rig.fabric.run(12000);
        (busy ? want : got) = rig.interrupts[3];
        if (!busy) {
            b3_advances = rig.recorder.advances[3];
            rounds = rig.fabric.round();
        }
    }
    ASSERT_EQ(want.size(), 1u);
    EXPECT_GT(want[0], 4000u + 3 * kLatency);
    EXPECT_EQ(got, want);
    EXPECT_LT(b3_advances, rounds / 2);
}

TEST(FabricQuiet, EventScheduledBetweenRunsFiresOnTime)
{
    // Every endpoint is idle, so the first run skips them all. The
    // event scheduled afterwards is only seen because run() re-reads
    // every endpoint's next activity when it starts.
    BladeRig rig(false);
    rig.fabric.run(5000);
    EXPECT_EQ(rig.totalAdvances(), 0u);
    for (Cycles c : rig.clocks())
        EXPECT_EQ(c, rig.fabric.now());

    ServerBlade &b2 = *rig.blades[2];
    Cycles due = rig.fabric.now() + 1234;
    Cycles fired = 0;
    b2.eventQueue().schedule(due, [&] { fired = b2.eventQueue().now(); });
    rig.fabric.run(5000);
    EXPECT_EQ(fired, due);
    EXPECT_GT(rig.recorder.advances[2], 0u);
    for (Cycles c : rig.clocks())
        EXPECT_EQ(c, rig.fabric.now());
}

TEST(FabricQuiet, IdleSwitchIsSkippedButForwardsEveryBatch)
{
    BladeRig rig(false);
    rig.fabric.run(kLatency * 10);
    EXPECT_EQ(rig.totalAdvances(), 0u);
    // 6 blade links + the trunk, both directions, every round.
    EXPECT_EQ(rig.fabric.batchesMoved(), 10u * 14u);
    EXPECT_EQ(rig.recorder.stream.size(), 10u * 14u * 3u);
    EXPECT_EQ(rig.switches[0]->nextActivity(), kNoCycle);
    EXPECT_EQ(rig.blades[0]->nextActivity(), kNoCycle);
}

} // namespace
} // namespace firesim
