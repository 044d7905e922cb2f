/**
 * @file
 * ShardPlan tests: the partition must be a pure deterministic function
 * of (topology, shard count, latencies), its global numbering must
 * match the single-process Cluster builder name-for-name, and its
 * ownership rules (contiguous server blocks, switches follow their
 * first server) must hold on every topology shape.
 */

#include <gtest/gtest.h>

#include "manager/cluster.hh"
#include "manager/shard.hh"
#include "manager/topology.hh"

namespace firesim
{
namespace
{

TEST(ShardPlan, DeterministicAcrossRebuilds)
{
    SwitchSpec t1 = topologies::twoLevel(4, 4);
    SwitchSpec t2 = topologies::twoLevel(4, 4);
    ShardPlan a = ShardPlan::build(t1, 4, 6400, 10, 0);
    ShardPlan b = ShardPlan::build(t2, 4, 6400, 10, 0);
    EXPECT_EQ(a.topoHash, b.topoHash);
    EXPECT_EQ(a.serverOwner, b.serverOwner);
    EXPECT_EQ(a.switchOwner, b.switchOwner);
    ASSERT_EQ(a.links.size(), b.links.size());
}

TEST(ShardPlan, HashCoversTimingAndShape)
{
    SwitchSpec t = topologies::twoLevel(2, 2);
    uint64_t base = ShardPlan::build(t, 2, 6400, 10, 0).topoHash;
    // Any input whose disagreement would desynchronize shards must
    // change the topology hash: latencies, window, topology shape.
    EXPECT_NE(base, ShardPlan::build(t, 2, 3200, 10, 0).topoHash);
    EXPECT_NE(base, ShardPlan::build(t, 2, 6400, 20, 0).topoHash);
    EXPECT_NE(base, ShardPlan::build(t, 2, 6400, 10, 100).topoHash);
    SwitchSpec other = topologies::twoLevel(2, 3);
    EXPECT_NE(base, ShardPlan::build(other, 2, 6400, 10, 0).topoHash);
    // The shard count and owner map deliberately do NOT change the
    // topology hash — that is what lets one snapshot restore under a
    // different plan. They do change the plan hash the transport's
    // Hello exchanges.
    uint64_t plan2 = ShardPlan::build(t, 2, 6400, 10, 0).planHash;
    EXPECT_EQ(base, ShardPlan::build(t, 4, 6400, 10, 0).topoHash);
    EXPECT_NE(plan2, ShardPlan::build(t, 4, 6400, 10, 0).planHash);
    EXPECT_NE(plan2,
              ShardPlan::build(t, 2, 6400, 10, 0, {0, 0, 0, 1}).planHash);
}

TEST(ShardPlan, ExplicitOwnerMapRespected)
{
    SwitchSpec t = topologies::twoLevel(2, 2);
    ShardPlan plan =
        ShardPlan::build(t, 2, 6400, 10, 0, {1, 0, 0, 1});
    EXPECT_EQ(plan.serverOwner, (std::vector<uint32_t>{1, 0, 0, 1}));
    // Switches still follow their first (preorder-lowest) server.
    ASSERT_EQ(plan.switchOwner.size(), 3u);
    EXPECT_EQ(plan.switchOwner[0], 1u); // root's first server is 0
    EXPECT_EQ(plan.switchOwner[1], 1u); // tor0 owns servers 0,1
    EXPECT_EQ(plan.switchOwner[2], 0u); // tor1 owns servers 2,3
    // Same map, same hash; block map differs.
    EXPECT_EQ(plan.planHash,
              ShardPlan::build(t, 2, 6400, 10, 0, {1, 0, 0, 1}).planHash);
    EXPECT_NE(plan.planHash,
              ShardPlan::build(t, 2, 6400, 10, 0).planHash);
}

TEST(ShardPlanDeath, OwnerMapValidated)
{
    SwitchSpec t = topologies::twoLevel(2, 2);
    EXPECT_EXIT(ShardPlan::build(t, 2, 6400, 10, 0, {0, 1, 0}),
                ::testing::ExitedWithCode(1), "owner map");
    EXPECT_EXIT(ShardPlan::build(t, 2, 6400, 10, 0, {0, 2, 0, 1}),
                ::testing::ExitedWithCode(1), "owner");
    EXPECT_EXIT(ShardPlan::build(t, 2, 6400, 10, 0, {0, 0, 0, 0}),
                ::testing::ExitedWithCode(1), "no servers");
}

TEST(ShardPlan, CountsAndLinksMatchTopology)
{
    SwitchSpec t = topologies::twoLevel(3, 5);
    ShardPlan plan = ShardPlan::build(t, 3, 6400, 10, 0);
    EXPECT_EQ(plan.nSwitches, 4u);
    EXPECT_EQ(plan.nServers, 15u);
    // One link per non-root switch plus one per server.
    EXPECT_EQ(plan.links.size(), 3u + 15u);
    // Link ids are dense and disjoint across directions.
    EXPECT_EQ(ShardPlan::downLinkId(4), 8u);
    EXPECT_EQ(ShardPlan::upLinkId(4), 9u);
}

TEST(ShardPlan, ServersSplitIntoContiguousBalancedBlocks)
{
    SwitchSpec t = topologies::singleTor(10);
    ShardPlan plan = ShardPlan::build(t, 4, 6400, 10, 0);
    ASSERT_EQ(plan.serverOwner.size(), 10u);
    // Non-decreasing owners, every rank non-empty, sizes within 1.
    std::vector<uint32_t> sizes(4, 0);
    for (size_t j = 0; j < plan.serverOwner.size(); ++j) {
        if (j > 0) {
            EXPECT_GE(plan.serverOwner[j], plan.serverOwner[j - 1]);
        }
        ASSERT_LT(plan.serverOwner[j], 4u);
        ++sizes[plan.serverOwner[j]];
    }
    for (uint32_t rank = 0; rank < 4; ++rank) {
        EXPECT_GE(sizes[rank], 2u);
        EXPECT_LE(sizes[rank], 3u);
    }
}

TEST(ShardPlan, SwitchesFollowTheirFirstServer)
{
    SwitchSpec t = topologies::twoLevel(2, 2); // root + 2 ToRs, 4 nodes
    ShardPlan plan = ShardPlan::build(t, 2, 6400, 10, 0);
    // Preorder: root=0, tor0=1 (servers 0,1), tor1=2 (servers 2,3).
    ASSERT_EQ(plan.switchOwner.size(), 3u);
    EXPECT_EQ(plan.switchOwner[0], 0u); // root: first server is 0
    EXPECT_EQ(plan.switchOwner[1], 0u);
    EXPECT_EQ(plan.switchOwner[2], 1u); // tor1 lives with servers 2,3
    // With this split only the root<->tor1 trunk crosses shards.
    size_t cross = 0;
    for (const auto &l : plan.links)
        cross += plan.ownerOfLink(l, false) != plan.ownerOfLink(l, true);
    EXPECT_EQ(cross, 1u);
}

TEST(ShardPlan, NumberingMatchesSingleProcessCluster)
{
    // The byte-identity tests depend on global indices lining up with
    // the single-process builder's component names. Build the real
    // Cluster and check the plan counts it the same way.
    SwitchSpec t = topologies::twoLevel(2, 3);
    ShardPlan plan = ShardPlan::build(t, 2, 6400, 10, 0);
    ClusterConfig cc;
    Cluster cluster(topologies::twoLevel(2, 3), cc);
    EXPECT_EQ(plan.nSwitches, cluster.switchCount());
    EXPECT_EQ(plan.nServers, cluster.nodeCount());
    // Per-switch port counts (incl. uplink) match the built switches.
    for (uint32_t s = 0; s < plan.nSwitches; ++s)
        EXPECT_EQ(plan.switchPorts[s], cluster.switchAt(s).config().ports)
            << "switch" << s;
    // The plan's root MAC routing view matches the built root switch.
    Switch &root = cluster.rootSwitch();
    for (uint32_t port = 0; port < plan.portServers[0].size(); ++port)
        for (uint32_t server : plan.portServers[0][port])
            EXPECT_EQ(root.lookupMac(Cluster::macFor(server)),
                      std::optional<uint32_t>(port));
}

TEST(ShardPlan, EachRankRegistersTheWalkItOwns)
{
    // Both ranks of a two-shard build register endpoints in the one
    // topology walk, keeping only what they own — so rank 1 lists
    // node1 and node3 before its switch2, not switches first.
    const std::vector<uint32_t> owners = {0, 1, 0, 1, 1, 0, 1, 0};
    const std::vector<std::string> want[2] = {
        {"switch0", "switch1", "node0", "node2", "node5", "node7"},
        {"node1", "node3", "switch2", "node4", "node6"}};
    auto [end0, end1] = loopbackLinkPair();
    PeerLinks links[2];
    links[0].emplace_back(1, std::move(end0));
    links[1].emplace_back(0, std::move(end1));
    std::unique_ptr<Cluster> ranks[2];
    for (uint32_t r = 0; r < 2; ++r) {
        ClusterConfig cc;
        cc.shard.shards = 2;
        cc.shard.rank = r;
        cc.shard.owners = owners;
        // Construction only sends Hello; both ranks fit on one thread.
        ranks[r] = std::make_unique<Cluster>(topologies::twoLevel(2, 4),
                                             cc, std::move(links[r]));
    }
    for (uint32_t r = 0; r < 2; ++r) {
        const ShardPlan &plan = ranks[r]->plan();
        std::vector<std::string> walked;
        for (const ShardPlan::Component &c : plan.walkOrder) {
            uint32_t owner = c.isSwitch ? plan.switchOwner[c.index]
                                        : plan.serverOwner[c.index];
            if (owner == r)
                walked.push_back(csprintf(
                    c.isSwitch ? "switch%u" : "node%u", c.index));
        }
        EXPECT_EQ(walked, want[r]) << "rank " << r;
        const TokenFabric &fab = ranks[r]->fabric();
        std::vector<std::string> registered;
        for (size_t i = 0; i < fab.endpointCount(); ++i)
            registered.push_back(fab.endpointAt(i).name());
        EXPECT_EQ(registered, want[r]) << "rank " << r;
    }
}

TEST(ShardPlanDeath, MoreShardsThanServersRejected)
{
    SwitchSpec t = topologies::singleTor(2);
    EXPECT_EXIT(ShardPlan::build(t, 3, 6400, 10, 0),
                ::testing::ExitedWithCode(1), "across 3 shards");
}

} // namespace
} // namespace firesim
