/**
 * @file
 * Tests for the fabric's activity-driven rounds.
 *
 * An endpoint with no flit arriving and nothing of its own due before
 * the window ends is not called. Without observers the fabric does not
 * even visit it, and it jumps over rounds in which no endpoint is due;
 * with an observer attached it visits every endpoint every round and
 * forwards a quiet one's empty inputs as its outputs. Either way the
 * skipping must be invisible to the simulation, so the main tests are
 * differential: a blades + switches rig runs once with the real
 * nextActivity() and once with subclasses that always report busy, and
 * every transmitted batch, every switch counter, every blade clock and
 * the snapshot bytes must agree. The other tests pin the corner cases:
 * a flit reaching a sleeping blade, an event scheduled on an idle blade
 * between run() calls, a run() target inside a skipped stretch, and a
 * quiet blade that goes down.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "net/fabric.hh"
#include "node/server_blade.hh"
#include "snapshot/serial.hh"
#include "switchmodel/switch.hh"

namespace firesim
{
namespace
{

/**
 * Counts its advance() calls into @p calls, which works without an
 * observer attached. While @p busy is set it always reports work due,
 * which makes it the always-stepped twin of the real endpoint.
 */
template <class Base>
class Probe : public Base
{
  public:
    template <class Config>
    Probe(const Config &cfg, const bool *busy, uint64_t *calls)
        : Base(cfg), busy(busy), calls(calls)
    {}

    Cycles
    nextActivity() const override
    {
        return *busy ? 0 : Base::nextActivity();
    }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            std::vector<TokenBatch> &out) override
    {
        ++*calls;
        Base::advance(window_start, window, in, out);
    }

  private:
    const bool *busy;
    uint64_t *calls;
};

/** Flattens every transmitted batch, in commit order, records every
 *  endpointDown() question, and counts the advance brackets per
 *  endpoint. */
class RecordingObserver : public FabricObserver
{
  public:
    std::vector<uint64_t> stream;
    std::vector<uint64_t> downAsks; //!< (endpoint, round start) pairs
    std::vector<uint64_t> advances;

    void
    onAttach(TokenFabric &fabric) override
    {
        advances.assign(fabric.endpointCount(), 0);
    }

    bool
    endpointDown(size_t idx, Cycles round_start) override
    {
        downAsks.push_back(idx);
        downAsks.push_back(round_start);
        return false;
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
 * twin; @p observe attaches the recorder, which makes the fabric visit
 * every endpoint every round. Every blade posts receive buffers and
 * raises interrupts into a per-blade log, so receives schedule events
 * like an OS would.
 */
struct BladeRig
{
    std::vector<std::unique_ptr<ServerBlade>> blades;
    std::vector<std::unique_ptr<Switch>> switches;
    std::vector<std::vector<Cycles>> interrupts;
    std::vector<uint64_t> calls; //!< advance() calls per endpoint
    bool busy;                   //!< every Probe reports work due
    RecordingObserver recorder;
    std::unique_ptr<FaultInjector> injector;
    TokenFabric fabric;

    explicit BladeRig(bool busy, unsigned hosts = 1,
                      const FaultPlan *plan = nullptr, bool observe = true)
        : busy(busy)
    {
        interrupts.resize(kBlades);
        calls.assign(kBlades + 2, 0);
        for (size_t i = 0; i < kBlades; ++i) {
            BladeConfig bc;
            bc.name = csprintf("b%zu", i);
            bc.memBytes = 16 * MiB;
            bc.mac = MacAddr(i + 1);
            blades.push_back(std::make_unique<Probe<ServerBlade>>(
                bc, &this->busy, &calls[i]));
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
            switches.push_back(std::make_unique<Probe<Switch>>(
                sc, &this->busy, &calls[kBlades + s]));
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
        if (observe)
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

    uint64_t
    totalCalls() const
    {
        uint64_t n = 0;
        for (uint64_t c : calls)
            n += c;
        return n;
    }

    /**
     * Snapshot bytes of the fabric's round state, of every channel with
     * its in-flight batches, and of every blade, one string per
     * section. Switches are left out: a switch's idle output ports keep
     * the link cursor of the last window it was stepped in (egress
     * raises it to the window start when it next runs), so only
     * settledSwitches() compares them.
     */
    std::vector<std::string>
    snapshot() const
    {
        std::vector<std::string> sections;
        add(sections, fabric);
        for (size_t c = 0; c < fabric.channelCount(); ++c)
            add(sections, fabric.channelAt(c));
        for (const auto &b : blades)
            add(sections, *b);
        return sections;
    }

    /** Switch snapshot bytes after one more round that steps every
     *  endpoint, which brings every egress cursor to that round. */
    std::vector<std::string>
    settledSwitches()
    {
        bool was = busy;
        busy = true;
        fabric.run(kLatency);
        busy = was;
        std::vector<std::string> sections;
        for (const auto &sw : switches)
            add(sections, *sw);
        return sections;
    }

    template <class Part>
    static void
    add(std::vector<std::string> &sections, const Part &part)
    {
        Serializer s;
        part.snapshotSave(s);
        sections.push_back(s.takeBytes());
    }
};

/** What one scenario leaves behind, for the differential compare. */
struct Outcome
{
    std::vector<uint64_t> stream;
    std::vector<uint64_t> downAsks;
    std::vector<uint64_t> switchStats;
    std::vector<std::vector<Cycles>> clocks; //!< after every run()
    std::vector<std::vector<Cycles>> interrupts;
    std::vector<std::string> snapshot; //!< after the last run()
    std::vector<std::string> switches; //!< settled, one round later
    uint64_t batches = 0;
    uint64_t advances = 0;
    uint64_t calls = 0;
    uint64_t rounds = 0;
};

/**
 * Idle stretches, traffic across the trunk and inside one switch, a
 * rate-limited frame, a send started by an event scheduled on an idle
 * blade, and a back-to-back burst — split over several run() calls.
 */
Outcome
runScenario(bool busy, unsigned hosts, const FaultPlan *plan = nullptr,
            bool observe = true)
{
    BladeRig rig(busy, hosts, plan, observe);
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
    o.downAsks = rig.recorder.downAsks;
    o.switchStats = rig.switchStats();
    o.interrupts = rig.interrupts;
    o.batches = rig.fabric.batchesMoved();
    o.advances = rig.totalAdvances();
    o.calls = rig.totalCalls();
    o.rounds = rig.fabric.round();
    o.snapshot = rig.snapshot();
    o.switches = rig.settledSwitches();
    return o;
}

/** Snapshot sections must match byte for byte; a mismatch names the
 *  section (fabric, then channels, then blades). */
void
expectSameSnapshot(const std::vector<std::string> &a,
                   const std::vector<std::string> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i] == b[i]) << "snapshot section " << i;
}

void
expectSameSimulation(const Outcome &quiet, const Outcome &busy)
{
    EXPECT_EQ(quiet.stream, busy.stream);
    EXPECT_EQ(quiet.downAsks, busy.downAsks);
    EXPECT_EQ(quiet.switchStats, busy.switchStats);
    EXPECT_EQ(quiet.clocks, busy.clocks);
    EXPECT_EQ(quiet.interrupts, busy.interrupts);
    EXPECT_EQ(quiet.batches, busy.batches);
    EXPECT_EQ(quiet.rounds, busy.rounds);
    expectSameSnapshot(quiet.snapshot, busy.snapshot);
    expectSameSnapshot(quiet.switches, busy.switches);
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

// ---- Without observers: only due endpoints are visited -----------------

TEST(FabricActivity, UnobservedRunMatchesAlwaysBusyTwinAtEveryWidth)
{
    // The scenario's idle stretches become fabric-wide skips here.
    Outcome busy = runScenario(true, 1, nullptr, false);
    EXPECT_GT(busy.switchStats[1], 0u); // sw0 packetsOut
    EXPECT_EQ(busy.calls, busy.rounds * (kBlades + 2));
    EXPECT_TRUE(busy.stream.empty());

    for (unsigned hosts : {1u, 2u, 4u}) {
        Outcome active = runScenario(false, hosts, nullptr, false);
        expectSameSimulation(active, busy);
        EXPECT_LT(active.calls, busy.calls / 4) << hosts;
    }

    // The observed run visits everyone and still simulates the same
    // (the unobserved twin recorded no callbacks to compare).
    Outcome observed = runScenario(false, 1);
    EXPECT_FALSE(observed.stream.empty());
    observed.stream.clear();
    observed.downAsks.clear();
    expectSameSimulation(observed, busy);
}

TEST(FabricActivity, ObserverSeesEveryEndpointEveryRound)
{
    // An attached observer keeps the full callback sequence: every
    // endpoint is asked endpointDown() every round in step order and
    // every batch passes onTransmit, even with nothing to do (the
    // differential tests compare both sequences with the busy twin's).
    BladeRig rig(false);
    rig.fabric.run(kLatency * 7 + 1);
    std::vector<uint64_t> want;
    for (uint64_t r = 0; r < 8; ++r)
        for (uint64_t idx = 0; idx < kBlades + 2; ++idx) {
            want.push_back(idx);
            want.push_back(r * kLatency);
        }
    EXPECT_EQ(rig.recorder.downAsks, want);
    EXPECT_EQ(rig.recorder.stream.size(), 8u * 14u * 3u);
    EXPECT_EQ(rig.totalCalls(), 0u);
}

TEST(FabricActivity, FlitReachingASleepingBladeArrivesOnTime)
{
    // Unobserved, b3 is not even visited until b0's frame reaches it,
    // then must see each flit at its exact cycle.
    std::vector<Cycles> want, got;
    uint64_t b3_calls = 0, rounds = 0;
    for (bool busy : {true, false}) {
        BladeRig rig(busy, 1, nullptr, false);
        rig.fabric.run(4000);
        rig.send(0, 3, 300, 0x10000);
        rig.fabric.run(12000);
        (busy ? want : got) = rig.interrupts[3];
        if (!busy) {
            b3_calls = rig.calls[3];
            rounds = rig.fabric.round();
        }
    }
    ASSERT_EQ(want.size(), 1u);
    EXPECT_GT(want[0], 4000u + 3 * kLatency);
    EXPECT_EQ(got, want);
    EXPECT_GT(b3_calls, 0u);
    EXPECT_LT(b3_calls, rounds / 2);
}

TEST(FabricActivity, LongIdleStretchesAreSkippedExactly)
{
    // Sparse work far apart inside one run() call: the fabric jumps
    // from wake to wake, and every event, delivery and counter lands
    // where the always-stepped twin puts it.
    auto scenario = [](bool busy) {
        BladeRig rig(busy, 1, nullptr, false);
        std::vector<Cycles> fired(3, 0);
        ServerBlade &b0 = *rig.blades[0];
        ServerBlade &b4 = *rig.blades[4];
        b0.eventQueue().schedule(
            10001, [&] { fired[0] = b0.eventQueue().now(); });
        b4.eventQueue().schedule(55555, [&] {
            fired[1] = b4.eventQueue().now();
            rig.send(4, 1, 700, 0x40000);
        });
        b0.eventQueue().schedule(
            199999, [&] { fired[2] = b0.eventQueue().now(); });
        rig.fabric.run(250000);
        Outcome o;
        o.switchStats = rig.switchStats();
        o.clocks.push_back(rig.clocks());
        o.clocks.push_back(fired);
        o.interrupts = rig.interrupts;
        o.batches = rig.fabric.batchesMoved();
        o.calls = rig.totalCalls();
        o.rounds = rig.fabric.round();
        o.snapshot = rig.snapshot();
        o.switches = rig.settledSwitches();
        return o;
    };
    Outcome busy = scenario(true);
    Outcome active = scenario(false);
    expectSameSimulation(active, busy);
    EXPECT_EQ(busy.clocks[1], (std::vector<Cycles>{10001, 55555, 199999}));
    EXPECT_EQ(busy.rounds, 625u);
    EXPECT_EQ(busy.batches, 625u * 14u);
    ASSERT_EQ(busy.interrupts[1].size(), 1u);
    EXPECT_LT(active.calls, busy.calls / 20);
}

TEST(FabricActivity, RunTargetInsideASkipStopsAtItsRound)
{
    // run() targets that fall inside an all-idle stretch and off a
    // round boundary end at the next boundary, with every clock,
    // channel and counter where the always-stepped twin leaves them;
    // work scheduled between the runs still fires on time.
    std::vector<std::vector<std::string>> snaps[2];
    std::vector<Cycles> fired[2];
    for (bool busy : {true, false}) {
        BladeRig rig(busy, 1, nullptr, false);
        std::vector<Cycles> &f = fired[busy];
        for (Cycles cycles : {Cycles(12345), Cycles(1), Cycles(400),
                              Cycles(7777)}) {
            ServerBlade &b5 = *rig.blades[5];
            b5.eventQueue().schedule(
                rig.fabric.now() + 1500,
                [&f, &b5] { f.push_back(b5.eventQueue().now()); });
            rig.fabric.run(cycles);
            for (Cycles c : rig.clocks())
                EXPECT_EQ(c, rig.fabric.now());
            EXPECT_EQ(rig.fabric.now() % kLatency, 0u);
            EXPECT_EQ(rig.fabric.batchesMoved(), rig.fabric.round() * 14u);
            snaps[busy].push_back(rig.snapshot());
        }
        EXPECT_EQ(rig.fabric.now(), 12400u + 400u + 400u + 8000u);
        if (!busy) {
            EXPECT_LT(rig.totalCalls(), rig.fabric.round());
        }
        snaps[busy].push_back(rig.settledSwitches());
    }
    ASSERT_EQ(snaps[0].size(), snaps[1].size());
    for (size_t i = 0; i < snaps[0].size(); ++i)
        expectSameSnapshot(snaps[0][i], snaps[1][i]);
    EXPECT_EQ(fired[0], fired[1]);
    // The events scheduled before the 1- and 400-cycle runs fire in the
    // last run, after the one scheduled before it.
    EXPECT_EQ(fired[0],
              (std::vector<Cycles>{1500, 13900, 14300, 14700}));
}

TEST(FabricActivity, EventScheduledBetweenRunsFiresOnTime)
{
    BladeRig rig(false, 1, nullptr, false);
    rig.fabric.run(5000);
    EXPECT_EQ(rig.totalCalls(), 0u);
    EXPECT_EQ(rig.fabric.round(), 13u);
    for (Cycles c : rig.clocks())
        EXPECT_EQ(c, rig.fabric.now());

    ServerBlade &b2 = *rig.blades[2];
    Cycles due = rig.fabric.now() + 1234;
    Cycles fired = 0;
    b2.eventQueue().schedule(due, [&] { fired = b2.eventQueue().now(); });
    rig.fabric.run(5000);
    EXPECT_EQ(fired, due);
    EXPECT_EQ(rig.calls[2], 1u);
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
