/**
 * @file
 * Elastic re-sharding tests. Two halves:
 *
 *  - The cost-aware deployment mapper: DeploymentProfile round-trips
 *    through its text format, uniform costs reproduce the block split
 *    exactly, skewed costs rebalance, and the cost plan is never worse
 *    (by max rank load) than the block plan it would replace.
 *
 *  - The re-shard parity matrix: a snapshot written under one
 *    ShardPlan restores under a *different* plan — 1<->2<->3 ranks,
 *    block vs explicit owner maps vs the cost policy — and the
 *    continued run is byte-identical (stripped stat dumps) to the
 *    same plan's uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "manager/checkpoint.hh"
#include "manager/cluster.hh"
#include "manager/deploy.hh"
#include "manager/shard.hh"
#include "manager/topology.hh"
#include "net/remote/socket.hh"
#include "snapshot/snapshot.hh"
#include "tests/temp_dir.hh"

namespace firesim
{
namespace
{

constexpr Cycles kSave = 60000;
constexpr Cycles kTotal = 120000;

ClusterConfig
testConfig()
{
    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.switchLatency = 10;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 2000;
    return cc;
}

void
spawnPinger(NodeSystem &from, size_t to_index)
{
    from.os().spawn("pinger", -1, [&from, to_index]() -> Task<> {
        while (true)
            co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

/** The workload every plan agrees on, keyed by *global* node index
 *  (sharded builds name local nodes by their global id): node0 pings
 *  node3 and node2 pings node1 (both cross shards under every split
 *  tested), node1 pings node0. */
void
spawnWork(Cluster &clu)
{
    for (size_t i = 0; i < clu.nodeCount(); ++i) {
        unsigned g = 0;
        ASSERT_EQ(std::sscanf(clu.node(i).name().c_str(), "node%u", &g),
                  1);
        switch (g) {
        case 0: spawnPinger(clu.node(i), 3); break;
        case 1: spawnPinger(clu.node(i), 0); break;
        case 2: spawnPinger(clu.node(i), 1); break;
        default: break;
        }
    }
}

std::string
strippedDump(Cluster &clu)
{
    return stripHostTimingStats(
        clu.telemetry()->registry().dumpJson(clu.now()));
}

/** Run the twoLevel(2,2) workload single-process; returns the final
 *  stripped dump. */
std::string
runSingle(const std::function<void(Cluster &)> &body)
{
    Cluster clu(topologies::twoLevel(2, 2), testConfig());
    spawnWork(clu);
    body(clu);
    return strippedDump(clu);
}

struct MultiSpec
{
    uint32_t shards = 2;
    std::vector<uint32_t> owners; //!< empty = policy decides
    ShardPolicy policy = ShardPolicy::Block;
    std::string profileIn;
};

/** Run the same workload split across @p spec.shards thread-ranks
 *  over a full socketpair mesh; returns per-rank stripped dumps. */
std::vector<std::string>
runMulti(const MultiSpec &spec,
         const std::function<void(Cluster &, uint32_t)> &body)
{
    uint32_t n = spec.shards;
    std::vector<std::vector<std::pair<uint32_t, SocketFd>>> fds(n);
    for (uint32_t a = 0; a < n; ++a) {
        for (uint32_t b = a + 1; b < n; ++b) {
            auto [fa, fb] = localSocketPair();
            fds[a].emplace_back(b, std::move(fa));
            fds[b].emplace_back(a, std::move(fb));
        }
    }

    std::vector<std::string> dumps(n);
    auto runRank = [&](uint32_t rank) {
        ClusterConfig cc = testConfig();
        cc.shard.shards = n;
        cc.shard.rank = rank;
        cc.shard.owners = spec.owners;
        cc.shard.policy = spec.policy;
        cc.shard.profileIn = spec.profileIn;
        Cluster clu(topologies::twoLevel(2, 2), std::move(cc),
                    socketpairLinks(rank, std::move(fds[rank])));
        spawnWork(clu);
        body(clu, rank);
        dumps[rank] = strippedDump(clu);
    };
    std::vector<std::thread> rest;
    for (uint32_t r = 1; r < n; ++r)
        rest.emplace_back([&, r] { runRank(r); });
    runRank(0);
    for (auto &t : rest)
        t.join();
    return dumps;
}

void
removeSnapshotFiles(const std::string &path)
{
    std::remove(path.c_str());
    for (int r = 0; r < 4; ++r)
        std::remove((path + ".rank" + std::to_string(r)).c_str());
}

// ---- Deployment profile + cost mapper -------------------------------

TEST(DeployProfile, RoundTripsThroughTextFormat)
{
    DeploymentProfile p;
    p.topoHash = 0xdeadbeefcafef00dULL;
    p.serverCostNs = {12.5, 0.0, 3.0};
    p.linkFlits = {7, 0, 0, 42};

    std::string path = testTempDir() + "fsprof_rt.prof";
    ASSERT_EQ(p.saveFile(path), "");

    DeploymentProfile q;
    std::string err;
    ASSERT_TRUE(q.loadFile(path, &err)) << err;
    EXPECT_EQ(q.topoHash, p.topoHash);
    ASSERT_EQ(q.serverCostNs.size(), 3u);
    EXPECT_DOUBLE_EQ(q.serverCostNs[0], 12.5);
    EXPECT_DOUBLE_EQ(q.serverCostNs[1], 0.0);
    EXPECT_EQ(q.linkFlits, p.linkFlits);
    std::remove(path.c_str());

    // A missing file is a clean first run, not an error.
    DeploymentProfile fresh;
    EXPECT_TRUE(fresh.loadFile(path, &err)) << err;
    EXPECT_TRUE(fresh.empty());

    // Garbage is an error, not a silent fallback.
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a profile\n", f);
    std::fclose(f);
    DeploymentProfile bad;
    EXPECT_FALSE(bad.loadFile(path, &err));
    EXPECT_FALSE(err.empty());
    std::remove(path.c_str());
}

TEST(DeployProfile, MergeOverwritesWithMeasuredValues)
{
    DeploymentProfile a, b;
    a.topoHash = b.topoHash = 99;
    a.serverCostNs = {1.0, 0.0};
    a.linkFlits = {5, 0};
    b.serverCostNs = {0.0, 2.0};
    b.linkFlits = {0, 9};
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.serverCostNs[0], 1.0);
    EXPECT_DOUBLE_EQ(a.serverCostNs[1], 2.0);
    EXPECT_EQ(a.linkFlits[0], 5u);
    EXPECT_EQ(a.linkFlits[1], 9u);
}

TEST(DeployMapper, UniformCostsReproduceBlockSplit)
{
    SwitchSpec t = topologies::singleTor(10);
    ShardPlan block = ShardPlan::build(t, 4, 400, 10, 0);
    DeploymentProfile empty; // nothing measured -> uniform weights
    EXPECT_EQ(computeCostOwners(block, empty), block.serverOwner);

    DeploymentProfile uniform;
    uniform.topoHash = block.topoHash;
    uniform.serverCostNs.assign(10, 50.0);
    EXPECT_EQ(computeCostOwners(block, uniform), block.serverOwner);
}

TEST(DeployMapper, SkewedCostsRebalance)
{
    SwitchSpec t = topologies::singleTor(8);
    ShardPlan plan = ShardPlan::build(t, 2, 400, 10, 0);
    DeploymentProfile prof;
    prof.topoHash = plan.topoHash;
    // Server 0 dwarfs everything: block's {0..3}|{4..7} split carries
    // 103 vs 4; the cost split should shed servers from rank 0.
    prof.serverCostNs = {100, 1, 1, 1, 1, 1, 1, 1};

    std::vector<uint32_t> owners = computeCostOwners(plan, prof);
    PlanCost blk = evaluateOwners(plan, plan.serverOwner, prof);
    PlanCost ours = evaluateOwners(plan, owners, prof);
    EXPECT_LT(ours.maxLoadNs, blk.maxLoadNs);
    EXPECT_NE(owners, plan.serverOwner);
    // Deterministic: same inputs, same plan.
    EXPECT_EQ(owners, computeCostOwners(plan, prof));
}

TEST(DeployMapper, CostNeverWorseThanBlock)
{
    SwitchSpec t = topologies::twoLevel(3, 4); // 12 servers
    for (uint32_t shards : {2u, 3u, 5u}) {
        ShardPlan plan = ShardPlan::build(t, shards, 400, 10, 0);
        uint64_t seed = 0x2545f4914f6cdd1dULL;
        for (int trial = 0; trial < 16; ++trial) {
            DeploymentProfile prof;
            prof.topoHash = plan.topoHash;
            prof.serverCostNs.resize(plan.nServers);
            for (double &c : prof.serverCostNs) {
                seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
                c = static_cast<double>((seed >> 33) % 1000);
            }
            std::vector<uint32_t> owners = computeCostOwners(plan, prof);
            PlanCost blk = evaluateOwners(plan, plan.serverOwner, prof);
            PlanCost ours = evaluateOwners(plan, owners, prof);
            EXPECT_LE(ours.maxLoadNs, blk.maxLoadNs + 1e-6)
                << "shards=" << shards << " trial=" << trial;
        }
    }
}

TEST(DeployProfile, ClusterWritesProfileAtTeardown)
{
    std::string path = testTempDir() + "fsprof_teardown.prof";
    std::remove(path.c_str());
    uint64_t topo_hash = 0;
    {
        ClusterConfig cc = testConfig();
        cc.shard.profileOut = path;
        Cluster clu(topologies::twoLevel(2, 2), std::move(cc));
        spawnWork(clu);
        clu.run(kSave);
        topo_hash = clu.topoHash();
    }
    DeploymentProfile prof;
    std::string err;
    ASSERT_TRUE(prof.loadFile(path, &err)) << err;
    EXPECT_EQ(prof.topoHash, topo_hash);
    ASSERT_EQ(prof.serverCostNs.size(), 4u);
    uint64_t moved = 0;
    for (uint64_t f : prof.linkFlits)
        moved += f;
    EXPECT_GT(moved, 0u) << "pinger traffic left no flit counts";
    std::remove(path.c_str());
}

// ---- Re-shard parity matrix -----------------------------------------

TEST(ReShard, OneProcessSnapshotRestoresAcrossPlans)
{
    std::string path = testTempDir() + "fsnp_reshard_1toN.snap";
    removeSnapshotFiles(path);

    // The snapshot source: a single-process run saved mid-flight.
    runSingle([&](Cluster &clu) {
        clu.run(kSave);
        ASSERT_EQ(clu.saveSnapshot(path), "");
        clu.run(kTotal - kSave);
    });

    auto resume_body = [&](Cluster &clu, uint32_t rank) {
        ASSERT_EQ(resumeFromSnapshot(clu, path), "") << "rank " << rank;
        EXPECT_EQ(clu.now(), kSave);
        clu.run(kTotal - kSave);
    };

    // 1 -> 2 ranks, block split.
    MultiSpec block2;
    std::vector<std::string> ref2 =
        runMulti(block2, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got2 = runMulti(block2, resume_body);
    ASSERT_FALSE(ref2[0].empty());
    EXPECT_EQ(got2[0], ref2[0]) << "rank 0 diverged after 1->2 re-shard";
    EXPECT_EQ(got2[1], ref2[1]) << "rank 1 diverged after 1->2 re-shard";

    // 1 -> 2 ranks, explicit owner map splitting tor0's servers
    // across ranks (stresses cross-shard switch<->server links).
    MultiSpec remap2;
    remap2.owners = {0, 1, 1, 0};
    std::vector<std::string> ref_remap =
        runMulti(remap2, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got_remap = runMulti(remap2, resume_body);
    EXPECT_NE(ref_remap[0], ref2[0])
        << "owner remap did not change rank 0's component set";
    EXPECT_EQ(got_remap[0], ref_remap[0])
        << "rank 0 diverged after 1->2 owner-remap re-shard";
    EXPECT_EQ(got_remap[1], ref_remap[1])
        << "rank 1 diverged after 1->2 owner-remap re-shard";

    // 1 -> 3 ranks.
    MultiSpec block3;
    block3.shards = 3;
    std::vector<std::string> ref3 =
        runMulti(block3, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got3 = runMulti(block3, resume_body);
    for (int r = 0; r < 3; ++r)
        EXPECT_EQ(got3[r], ref3[r])
            << "rank " << r << " diverged after 1->3 re-shard";

    removeSnapshotFiles(path);
}

TEST(ReShard, ShardedSnapshotRestoresIntoOtherGeometries)
{
    std::string path = testTempDir() + "fsnp_reshard_Nto.snap";
    removeSnapshotFiles(path);

    // Source: a 2-shard block run saved mid-flight.
    MultiSpec block2;
    runMulti(block2, [&](Cluster &clu, uint32_t rank) {
        clu.run(kSave);
        ASSERT_EQ(clu.saveSnapshot(path), "") << "rank " << rank;
        clu.run(kTotal - kSave);
    });

    // 2 -> 1: merge back into a single process.
    std::string ref1 =
        runSingle([](Cluster &clu) { clu.run(kTotal); });
    std::string got1 = runSingle([&](Cluster &clu) {
        ASSERT_EQ(resumeFromSnapshot(clu, path), "");
        EXPECT_EQ(clu.now(), kSave);
        clu.run(kTotal - kSave);
    });
    ASSERT_FALSE(ref1.empty());
    EXPECT_EQ(got1, ref1) << "single process diverged after 2->1";

    auto resume_body = [&](Cluster &clu, uint32_t rank) {
        ASSERT_EQ(resumeFromSnapshot(clu, path), "") << "rank " << rank;
        EXPECT_EQ(clu.now(), kSave);
        clu.run(kTotal - kSave);
    };

    // 2 -> 2 with a different owner map (same rank count, different
    // placement — the header alone cannot tell these apart; the plan
    // section must).
    MultiSpec remap2;
    remap2.owners = {0, 1, 1, 0};
    std::vector<std::string> ref_remap =
        runMulti(remap2, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got_remap = runMulti(remap2, resume_body);
    EXPECT_EQ(got_remap[0], ref_remap[0])
        << "rank 0 diverged after owner-remap restore";
    EXPECT_EQ(got_remap[1], ref_remap[1])
        << "rank 1 diverged after owner-remap restore";

    // 2 -> 3 ranks.
    MultiSpec block3;
    block3.shards = 3;
    std::vector<std::string> ref3 =
        runMulti(block3, [](Cluster &clu, uint32_t) { clu.run(kTotal); });
    std::vector<std::string> got3 = runMulti(block3, resume_body);
    for (int r = 0; r < 3; ++r)
        EXPECT_EQ(got3[r], ref3[r])
            << "rank " << r << " diverged after 2->3 re-shard";

    removeSnapshotFiles(path);
}

TEST(ReShard, CostPolicyPlanRestoresByteIdentically)
{
    std::string snap = testTempDir() + "fsnp_reshard_cost.snap";
    std::string prof_path = testTempDir() + "fsprof_cost.prof";
    removeSnapshotFiles(snap);

    // A profile that makes node0 look expensive enough that the cost
    // mapper picks a non-block split of the 4 servers.
    SwitchSpec t = topologies::twoLevel(2, 2);
    ShardPlan base = ShardPlan::build(t, 2, 400, 10, 0);
    DeploymentProfile prof;
    prof.topoHash = base.topoHash;
    prof.serverCostNs = {400.0, 10.0, 10.0, 10.0};
    ASSERT_EQ(prof.saveFile(prof_path), "");
    ASSERT_NE(computeCostOwners(base, prof), base.serverOwner);

    // Source snapshot from a single-process run.
    runSingle([&](Cluster &clu) {
        clu.run(kSave);
        ASSERT_EQ(clu.saveSnapshot(snap), "");
    });

    MultiSpec cost2;
    cost2.policy = ShardPolicy::Cost;
    cost2.profileIn = prof_path;
    std::vector<std::string> ref =
        runMulti(cost2, [&](Cluster &clu, uint32_t) {
            EXPECT_NE(clu.plan().serverOwner, base.serverOwner)
                << "cost policy fell back to the block split";
            clu.run(kTotal);
        });
    std::vector<std::string> got =
        runMulti(cost2, [&](Cluster &clu, uint32_t rank) {
            ASSERT_EQ(resumeFromSnapshot(clu, snap), "")
                << "rank " << rank;
            clu.run(kTotal - kSave);
        });
    EXPECT_EQ(got[0], ref[0]) << "rank 0 diverged under cost plan";
    EXPECT_EQ(got[1], ref[1]) << "rank 1 diverged under cost plan";

    removeSnapshotFiles(snap);
    std::remove(prof_path.c_str());
}

TEST(ReShard, CostPlanWarnsWhenProfileHasNoServerCost)
{
    // A 1-thread run times no advance units, so its profile carries
    // link traffic but no server cost. A cost plan fed that profile
    // falls back to uniform weights and must say why.
    std::string prof_path = testTempDir() + "fsprof_nocost.prof";
    {
        ClusterConfig cc = testConfig();
        cc.shard.profileOut = prof_path;
        Cluster clu(topologies::twoLevel(2, 2), std::move(cc));
        spawnWork(clu);
        clu.run(kSave);
    }
    DeploymentProfile prof;
    std::string err;
    ASSERT_TRUE(prof.loadFile(prof_path, &err)) << err;
    ASSERT_FALSE(prof.empty()); // the link traffic is there
    for (double c : prof.serverCostNs)
        ASSERT_EQ(c, 0.0);

    MultiSpec cost2;
    cost2.policy = ShardPolicy::Cost;
    cost2.profileIn = prof_path;
    ShardPlan block = ShardPlan::build(topologies::twoLevel(2, 2), 2, 400,
                                       10, 0);
    ::testing::internal::CaptureStderr();
    runMulti(cost2, [&](Cluster &clu, uint32_t) {
        EXPECT_EQ(clu.plan().serverOwner, block.serverOwner)
            << "uniform weights must reproduce the block split";
        clu.run(kSave); // the round barrier keeps both ranks up
    });
    std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("no measured server cost"), std::string::npos)
        << log;
    EXPECT_NE(log.find("--parallel-hosts >= 2"), std::string::npos)
        << log;
    std::remove(prof_path.c_str());
}

TEST(ReShard, SamePlanRestoreStillFullyVerifies)
{
    // The re-shard machinery must not have cost the same-plan path its
    // verification: restoring rank files written by a *different*
    // owner map under the same shard count goes through the re-home
    // path (checked above); restoring the same plan still runs the
    // stats byte-check, and a topology mismatch is still refused.
    std::string path = testTempDir() + "fsnp_reshard_verify.snap";
    removeSnapshotFiles(path);
    runSingle([&](Cluster &clu) {
        clu.run(kSave);
        ASSERT_EQ(clu.saveSnapshot(path), "");
    });

    // Different topology: refused with a hash diagnostic.
    {
        ClusterConfig cc = testConfig();
        Cluster clu(topologies::singleTor(4), std::move(cc));
        spawnWork(clu);
        clu.run(kSave);
        std::string e = clu.loadSnapshot(path);
        EXPECT_NE(e.find("topology"), std::string::npos) << e;
    }

    // Same plan: clean verified restore.
    {
        Cluster clu(topologies::twoLevel(2, 2), testConfig());
        spawnWork(clu);
        clu.run(kSave);
        EXPECT_EQ(clu.loadSnapshot(path), "");
    }
    removeSnapshotFiles(path);
}

} // namespace
} // namespace firesim
