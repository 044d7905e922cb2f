/**
 * @file
 * Distributed fault handling: a shard whose peer dies mid-run must
 * degrade gracefully through the HealthMonitor (the PR-1 degraded-host
 * model) instead of hanging in a blocking recv — and must do so within
 * the configured barrier timeout even when the peer vanishes silently.
 * With failFast the loss is fatal instead, for CI death tests.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/shard_transport.hh"
#include "net/remote/socket.hh"

namespace firesim
{
namespace
{

TEST(DistFault, PeerDeathDegradesSurvivorThroughHealthMonitor)
{
    auto [fd0, fd1] = localSocketPair();
    ClusterConfig cc0, cc1;
    cc0.linkLatency = cc1.linkLatency = 400;
    cc0.shard.shards = cc1.shard.shards = 2;
    cc0.shard.rank = 0;
    cc1.shard.rank = 1;
    cc0.shard.recvTimeoutMs = 5000;
    std::vector<std::pair<uint32_t, SocketFd>> fds0, fds1;
    fds0.emplace_back(1, std::move(fd0));
    fds1.emplace_back(0, std::move(fd1));
    PeerLinks links0 = socketpairLinks(0, std::move(fds0));
    PeerLinks links1 = socketpairLinks(1, std::move(fds1));

    // The peer shard simulates a short while, then exits (its
    // destructor sends an orderly Bye — a "peer process finished
    // early" failure, caught mid-run by the survivor's barrier).
    std::thread dying([&] {
        Cluster c1(topologies::singleTor(2), std::move(cc1),
                   std::move(links1));
        c1.run(4000);
    });

    Cluster c0(topologies::singleTor(2), std::move(cc0),
               std::move(links0));
    c0.run(40000); // well past the peer's exit
    dying.join();

    // The survivor ran to completion, degraded rather than hung.
    EXPECT_EQ(c0.now(), 40000u);
    ASSERT_TRUE(c0.shardTransport()->anyPeerLost());
    EXPECT_EQ(c0.shardTransport()->livePeers(), 0u);
    EXPECT_EQ(c0.health().count(FaultEvent::Kind::PeerShardLost), 1u);
    EXPECT_NE(c0.healthReport().find("peer-shard-lost"),
              std::string::npos);
}

TEST(DistFault, SilentPeerTimesOutWithinBound)
{
    // A peer that holds its socket open but never speaks: the barrier
    // must give up after recvTimeoutMs and synthesize empty tokens,
    // not block forever.
    auto [fd0, fd1] = localSocketPair();
    ShardTransport::Options opts;
    opts.rank = 0;
    opts.shards = 2;
    opts.recvTimeoutMs = 250;
    std::vector<std::pair<uint32_t, SocketFd>> fds;
    fds.emplace_back(1, std::move(fd0));
    auto t = ShardTransport::fromLinks(
        opts, socketpairLinks(0, std::move(fds)), 9);

    TokenChannel chan(400, 400);
    chan.setLabel("silent->here [remote link 3]");
    t->bindRxChannel(3, 1, &chan);

    chan.pop(); // the fabric's round-0 pop of the seed batch
    auto t0 = std::chrono::steady_clock::now();
    t->onRoundComplete(0, 0);
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    EXPECT_GE(waited, 200); // ~recvTimeoutMs, minus poll granularity
    EXPECT_LT(waited, 5000) << "barrier did not respect its timeout";
    EXPECT_TRUE(t->anyPeerLost());

    // The dead peer's link was refilled with an empty batch, and
    // later rounds skip the barrier entirely (no second timeout).
    EXPECT_EQ(chan.depth(), 1u);
    TokenBatch round1 = chan.pop();
    EXPECT_TRUE(round1.isEmpty());
    EXPECT_EQ(round1.start, 400u);
    auto t1 = std::chrono::steady_clock::now();
    t->onRoundComplete(1, 400);
    auto again = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t1)
                     .count();
    EXPECT_LT(again, 250);
    EXPECT_EQ(chan.depth(), 1u);

    (void)fd1; // intentionally kept open and silent
}

TEST(DistFaultDeath, FailFastAbortsOnLostPeer)
{
    auto fds = localSocketPair();
    ShardTransport::Options opts;
    opts.rank = 0;
    opts.shards = 2;
    opts.recvTimeoutMs = 250;
    opts.failFast = true;
    std::vector<std::pair<uint32_t, SocketFd>> v;
    v.emplace_back(1, std::move(fds.first));
    auto t = ShardTransport::fromLinks(
        opts, socketpairLinks(0, std::move(v)), 9);
    fds.second = SocketFd(); // close the peer's end: EOF at the barrier
    EXPECT_EXIT(t->onRoundComplete(0, 0), ::testing::ExitedWithCode(1),
                "lost peer shard 1");
}

} // namespace
} // namespace firesim
