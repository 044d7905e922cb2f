/**
 * @file
 * The headline acceptance test for distributed simulation: the same
 * topology run as one process and as two shards produces byte-identical
 * results — per-component stat subtrees, AutoCounter sample series,
 * and the cross-shard batch accounting invariant. Plus a two-process-
 * style TCP rendezvous smoke test (two transports in one process,
 * which exercises the identical listen/connect/Hello path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"

namespace firesim
{
namespace
{

ClusterConfig
testConfig()
{
    ClusterConfig cc;
    cc.linkLatency = 400; // short rounds keep the test fast
    cc.switchLatency = 10;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 2000;
    return cc;
}

/** All "cluster.<component>.*" stats of @p snap, keyed by name. */
std::map<std::string, double>
componentSubtree(const StatSnapshot &snap, const std::string &component)
{
    std::string prefix = "cluster." + component + ".";
    std::map<std::string, double> out;
    for (const auto &[name, value] : snap.values)
        if (name.rfind(prefix, 0) == 0)
            out.emplace(name, value);
    return out;
}

void
spawnPing(NodeSystem &from, size_t to_index, Cycles *rtt_out)
{
    from.os().spawn("ping", -1, [&from, to_index, rtt_out]() -> Task<> {
        *rtt_out = co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

TEST(DistCluster, TwoShardsAreByteIdenticalToOneProcess)
{
    constexpr Cycles kRun = 600000;
    // twoLevel(2,2): root(switch0) over tor(switch1){node0,node1} and
    // tor(switch2){node2,node3}. Two shards split it switch2+nodes2,3
    // vs the rest, so the root<->switch2 trunk rides the socket.
    Cycles ref_rtt01 = 0, ref_rtt03 = 0, ref_rtt20 = 0;
    StatSnapshot ref_snap;
    std::vector<std::string> ref_cols;
    std::vector<AutoCounterSampler::Sample> ref_samples;
    uint64_t ref_batches = 0;
    {
        Cluster ref(topologies::twoLevel(2, 2), testConfig());
        spawnPing(ref.node(0), 1, &ref_rtt01);
        spawnPing(ref.node(0), 3, &ref_rtt03);
        spawnPing(ref.node(2), 0, &ref_rtt20);
        ref.run(kRun);
        ASSERT_GT(ref_rtt03, 0u) << "cross-ToR ping never completed";
        ASSERT_GT(ref_rtt20, 0u);
        ref_snap = ref.telemetry()->registry().snapshot(ref.now());
        ref_cols = ref.telemetry()->sampler()->columns();
        ref_samples = ref.telemetry()->sampler()->series();
        ref_batches = ref.fabric().batchesMoved();
    }

    // The sharded run: same topology, same workload, two shard
    // processes emulated by two threads over an AF_UNIX socketpair.
    auto [fd0, fd1] = localSocketPair();
    ClusterConfig cc0 = testConfig(), cc1 = testConfig();
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    fds0.emplace_back(1, std::move(fd0));
    fds1.emplace_back(0, std::move(fd1));
    PeerLinks links0 = socketpairLinks(0, std::move(fds0));
    PeerLinks links1 = socketpairLinks(1, std::move(fds1));

    Cycles rtt01 = 0, rtt03 = 0, rtt20 = 0;
    StatSnapshot snap0, snap1;
    std::vector<std::string> cols0;
    std::vector<AutoCounterSampler::Sample> samples0, samples1;
    uint64_t batches0 = 0, batches1 = 0;
    bool lost0 = true, lost1 = true;

    std::thread shard1([&] {
        // Rank 1 owns global nodes 2,3 as local 0,1.
        Cluster c1(topologies::twoLevel(2, 2), std::move(cc1),
                   std::move(links1));
        spawnPing(c1.node(0), 0, &rtt20);
        c1.run(kRun);
        snap1 = c1.telemetry()->registry().snapshot(c1.now());
        samples1 = c1.telemetry()->sampler()->series();
        batches1 = c1.fabric().batchesMoved();
        lost1 = c1.shardTransport()->anyPeerLost();
    });
    {
        // Rank 0 owns global nodes 0,1 as local 0,1.
        Cluster c0(topologies::twoLevel(2, 2), std::move(cc0),
                   std::move(links0));
        spawnPing(c0.node(0), 1, &rtt01);
        spawnPing(c0.node(0), 3, &rtt03);
        c0.run(kRun);
        snap0 = c0.telemetry()->registry().snapshot(c0.now());
        cols0 = c0.telemetry()->sampler()->columns();
        samples0 = c0.telemetry()->sampler()->series();
        batches0 = c0.fabric().batchesMoved();
        lost0 = c0.shardTransport()->anyPeerLost();
    }
    shard1.join();

    EXPECT_FALSE(lost0);
    EXPECT_FALSE(lost1);

    // Target-visible behavior is cycle-exact across the split.
    EXPECT_EQ(rtt01, ref_rtt01);
    EXPECT_EQ(rtt03, ref_rtt03);
    EXPECT_EQ(rtt20, ref_rtt20);

    // Per-component stat subtrees match the single-process run
    // exactly, each read from the shard that owns the component.
    for (const char *comp : {"switch0", "switch1", "node0", "node1"}) {
        auto want = componentSubtree(ref_snap, comp);
        ASSERT_FALSE(want.empty()) << comp;
        EXPECT_EQ(componentSubtree(snap0, comp), want) << comp;
    }
    for (const char *comp : {"switch2", "node2", "node3"}) {
        auto want = componentSubtree(ref_snap, comp);
        ASSERT_FALSE(want.empty()) << comp;
        EXPECT_EQ(componentSubtree(snap1, comp), want) << comp;
    }

    // AutoCounter series: same sample instants, and every component
    // column the shard shares with the reference carries identical
    // values sample for sample.
    ASSERT_EQ(samples0.size(), ref_samples.size());
    ASSERT_EQ(samples1.size(), ref_samples.size());
    for (size_t col = 0; col < cols0.size(); ++col) {
        const std::string &name = cols0[col];
        // Only per-component columns are comparable: whole-process
        // aggregates (cluster.fabric.*, cluster.shard.*) legitimately
        // cover just this shard's slice of the work.
        if (name.rfind("cluster.switch", 0) != 0 &&
            name.rfind("cluster.node", 0) != 0)
            continue;
        auto it = std::find(ref_cols.begin(), ref_cols.end(), name);
        if (it == ref_cols.end())
            continue; // shard-only stat
        size_t ref_col = static_cast<size_t>(it - ref_cols.begin());
        for (size_t s = 0; s < samples0.size(); ++s) {
            EXPECT_EQ(samples0[s].at, ref_samples[s].at);
            EXPECT_EQ(samples0[s].values[col],
                      ref_samples[s].values[ref_col])
                << name << " sample " << s;
        }
    }

    // Cross-shard TX batches are counted once, on the producing shard,
    // so the shards' batch totals partition the single-process total.
    EXPECT_EQ(batches0 + batches1, ref_batches);
}

TEST(DistCluster, TcpRendezvousSmoke)
{
    // Probe an ephemeral port, then run a real listen/connect/Hello
    // rendezvous between two sharded clusters. Same code path two
    // separate processes would take; threads stand in for processes.
    uint16_t base_port;
    {
        SocketFd probe = tcpListen("127.0.0.1", 0);
        base_port = boundPort(probe);
    }

    ClusterConfig cc0, cc1;
    cc0.linkLatency = cc1.linkLatency = 400;
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    cc0.shard.basePort = cc1.shard.basePort = base_port;

    Cycles rtt = 0;
    bool lost1 = true;
    std::thread shard1([&] {
        Cluster c1(topologies::singleTor(2), std::move(cc1));
        c1.run(300000);
        lost1 = c1.shardTransport()->anyPeerLost();
    });
    Cluster c0(topologies::singleTor(2), std::move(cc0));
    spawnPing(c0.node(0), 1, &rtt);
    c0.run(300000);
    bool lost0 = c0.shardTransport()->anyPeerLost();
    EXPECT_EQ(c0.shardTransport()->livePeers(), 1u);
    shard1.join();

    EXPECT_GT(rtt, 0u) << "cross-shard ping over TCP never completed";
    EXPECT_FALSE(lost0);
    EXPECT_FALSE(lost1);
}

} // namespace
} // namespace firesim
