/**
 * @file
 * Seeded mutation fuzzing of the RankTelemetry decoder
 * (telemetry/aggregate), which rank 0 runs on every Stats frame a peer
 * sends.
 *
 * The corpus is one real payload: the registry snapshot and sim-rate
 * phases of a small cluster after a short ping workload. Each case
 * applies a few mutations — flipped bytes, truncation, spliced slices,
 * inflated varints — and decodes the result. Every input must either
 * decode or return false; none may crash, throw or panic, and what it
 * decodes into must stay within a fixed multiple of its size. A
 * payload that decodes must survive a re-encode unchanged. Run it in
 * the sanitizer tree too (cmake -DFIRESIM_SANITIZE=address), where an
 * out-of-bounds read in the decoder is a hard failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <utility>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "telemetry/aggregate.hh"

namespace firesim
{
namespace
{

/** One rank's telemetry from a real registry: twoLevel(2,2), node0
 *  pinging node3 for 40k cycles over two run phases. */
std::string
realPayload()
{
    ClusterConfig cc;
    cc.telemetry.enabled = true;
    Cluster clu(topologies::twoLevel(2, 2), cc);
    NodeSystem &from = clu.node(0);
    from.os().spawn("pinger", -1, [&from]() -> Task<> {
        while (true)
            co_await from.net().ping(Cluster::ipFor(3));
    });
    clu.run(20000);
    clu.run(20000);
    RankTelemetry rt;
    rt.rank = 1;
    rt.round = clu.fabric().round();
    rt.cycle = clu.now();
    rt.stats = clu.telemetry()->registry().snapshot(clu.now());
    rt.phases = clu.telemetry()->simRate().phases();
    return encodeRankTelemetry(rt);
}

class PayloadFuzzer
{
  public:
    PayloadFuzzer(uint64_t seed, std::string base)
        : rng(seed), corpus(std::move(base))
    {
    }

    /** The base payload after one to four mutations. */
    std::string
    next()
    {
        std::string s = corpus;
        const int edits = 1 + static_cast<int>(pick(4));
        for (int i = 0; i < edits; ++i)
            mutate(s);
        return s;
    }

  private:
    size_t pick(size_t n) { return n ? rng() % n : 0; }

    void
    mutate(std::string &s)
    {
        size_t at = pick(s.size() + 1);
        switch (pick(5)) {
        case 0: // flip bits of one byte
            if (!s.empty())
                s[pick(s.size())] ^= static_cast<char>(1 + pick(255));
            break;
        case 1: // overwrite one byte
            if (!s.empty())
                s[pick(s.size())] = static_cast<char>(pick(256));
            break;
        case 2: // truncate
            s.resize(at);
            break;
        case 3: { // splice a slice of the base payload in
            size_t from = pick(corpus.size());
            size_t len = pick(std::min<size_t>(64, corpus.size() - from));
            s.insert(at, corpus, from, len);
            break;
        }
        default: { // inflate a varint: continuation bytes, then a
                   // large value, sometimes past ten bytes
            std::string run(1 + pick(12), static_cast<char>(0xff));
            if (pick(2))
                run.push_back(static_cast<char>(pick(128)));
            s.insert(at, run);
            break;
        }
        }
    }

    std::mt19937_64 rng;
    std::string corpus;
};

/** Heap bytes @p rt holds, counting every string and vector capacity. */
size_t
heldBytes(const RankTelemetry &rt)
{
    size_t n = rt.stats.values.capacity() *
               sizeof(rt.stats.values[0]);
    for (const auto &[name, value] : rt.stats.values)
        n += name.capacity();
    n += rt.phases.capacity() * sizeof(SimRateTelemetry::Phase);
    for (const auto &ph : rt.phases)
        n += ph.name.capacity();
    return n;
}

bool
sameBits(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

TEST(RankTelemetryFuzz, EveryMutantDecodesOrIsRejected)
{
    const std::string base = realPayload();
    RankTelemetry ref;
    ASSERT_TRUE(decodeRankTelemetry(base, ref));
    ASSERT_GT(ref.stats.values.size(), 50u) << "corpus is too small";
    ASSERT_FALSE(ref.phases.empty());

    PayloadFuzzer fuzz(0x7e1e5eedULL, base);
    size_t accepted = 0;
    const int kCases = 20000;
    for (int c = 0; c < kCases; ++c) {
        const std::string bytes = fuzz.next();
        RankTelemetry out;
        bool ok = false;
        ASSERT_NO_THROW(ok = decodeRankTelemetry(bytes, out))
            << "case " << c;
        // A stat costs at least four payload bytes and holds at most
        // a kMaxStatNameBytes name plus its entry; a phase costs at
        // least eleven and holds its name and entry.
        const size_t bound =
            (kMaxStatNameBytes + 2 * sizeof(out.stats.values[0])) *
                (bytes.size() / 4 + 1) +
            4096;
        EXPECT_LE(heldBytes(out), bound)
            << "case " << c << ": " << bytes.size() << "-byte input";
        if (!ok)
            continue;
        ++accepted;
        RankTelemetry again;
        ASSERT_TRUE(decodeRankTelemetry(encodeRankTelemetry(out), again))
            << "case " << c;
        ASSERT_EQ(again.stats.values.size(), out.stats.values.size());
        for (size_t i = 0; i < out.stats.values.size(); ++i) {
            EXPECT_EQ(again.stats.values[i].first,
                      out.stats.values[i].first);
            EXPECT_TRUE(sameBits(again.stats.values[i].second,
                                 out.stats.values[i].second))
                << "case " << c << " stat " << i;
        }
        ASSERT_EQ(again.phases.size(), out.phases.size());
        for (size_t i = 0; i < out.phases.size(); ++i)
            EXPECT_EQ(again.phases[i].name, out.phases[i].name);
    }
    // The mutants must exercise both outcomes, or they prove little.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, static_cast<size_t>(kCases));
}

} // namespace
} // namespace firesim
