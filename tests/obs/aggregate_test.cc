/**
 * @file
 * Cross-shard telemetry aggregation (telemetry/aggregate.hh): the
 * varint RankTelemetry wire encoding must round-trip exactly, reject
 * every malformed prefix/suffix strictly (network bytes never panic),
 * and the StatAggregator's merged renderings must carry per-rank
 * `rankK.` prefixes and simulated-clock trace lanes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/varint.hh"
#include "telemetry/aggregate.hh"
#include "tests/telemetry/mini_json.hh"

namespace firesim
{
namespace
{

RankTelemetry
sampleTelemetry(uint32_t rank, Cycles cycle)
{
    RankTelemetry rt;
    rt.rank = rank;
    rt.round = 17;
    rt.cycle = cycle;
    rt.stats.at = cycle;
    // Sorted, prefix-heavy names: the shape the registry produces and
    // the encoding's prefix compression is built for.
    rt.stats.values = {
        {"cluster.node0.nic.bytesSent", 123456789.0},
        {"cluster.node0.nic.framesSent", 42.0},
        {"cluster.node0.os.ipc", 0.625},
        {"cluster.switch0.packetsOut", -5.0},
        {"cluster.switch0.queue.p99", 1.75e17},
    };
    SimRateTelemetry::Phase ph;
    ph.name = "run.0";
    ph.startCycle = 0;
    ph.targetCycles = 600000;
    ph.hostSeconds = 0.125;
    rt.phases.push_back(ph);
    ph.name = "run.600000";
    ph.startCycle = 600000;
    ph.targetCycles = 40000;
    ph.hostSeconds = 0.0078125;
    rt.phases.push_back(ph);
    return rt;
}

TEST(RankTelemetryCodec, RoundTripsExactly)
{
    RankTelemetry rt = sampleTelemetry(3, 640000);
    std::string bytes = encodeRankTelemetry(rt);
    RankTelemetry back;
    ASSERT_TRUE(decodeRankTelemetry(bytes, back));

    EXPECT_EQ(back.rank, rt.rank);
    EXPECT_EQ(back.round, rt.round);
    EXPECT_EQ(back.cycle, rt.cycle);
    EXPECT_EQ(back.stats.at, rt.cycle);
    ASSERT_EQ(back.stats.values.size(), rt.stats.values.size());
    for (size_t i = 0; i < rt.stats.values.size(); ++i) {
        EXPECT_EQ(back.stats.values[i].first, rt.stats.values[i].first);
        // Integral values ride zigzag varints, non-integral ones raw
        // IEEE-754 bits — either way bit-exact, not approximate.
        EXPECT_EQ(back.stats.values[i].second,
                  rt.stats.values[i].second)
            << rt.stats.values[i].first;
    }
    ASSERT_EQ(back.phases.size(), rt.phases.size());
    for (size_t i = 0; i < rt.phases.size(); ++i) {
        EXPECT_EQ(back.phases[i].name, rt.phases[i].name);
        EXPECT_EQ(back.phases[i].startCycle, rt.phases[i].startCycle);
        EXPECT_EQ(back.phases[i].targetCycles,
                  rt.phases[i].targetCycles);
        EXPECT_EQ(back.phases[i].hostSeconds, rt.phases[i].hostSeconds);
    }
}

TEST(RankTelemetryCodec, EmptyTelemetryRoundTrips)
{
    RankTelemetry rt;
    rt.rank = 0;
    std::string bytes = encodeRankTelemetry(rt);
    RankTelemetry back;
    ASSERT_TRUE(decodeRankTelemetry(bytes, back));
    EXPECT_EQ(back.stats.values.size(), 0u);
    EXPECT_EQ(back.phases.size(), 0u);
}

TEST(RankTelemetryCodec, RejectsEveryTruncation)
{
    // The decoder's contract: malformed or truncated bytes return
    // false, never panic, never read out of bounds. Every strict
    // prefix of a valid encoding is truncated, so all must fail.
    std::string bytes = encodeRankTelemetry(sampleTelemetry(1, 9999));
    RankTelemetry out;
    for (size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(decodeRankTelemetry(bytes.substr(0, len), out))
            << "prefix of length " << len << " decoded";
    }
    ASSERT_TRUE(decodeRankTelemetry(bytes, out));
}

TEST(RankTelemetryCodec, RejectsTrailingJunkAndBadVersion)
{
    std::string bytes = encodeRankTelemetry(sampleTelemetry(1, 50));
    RankTelemetry out;
    EXPECT_FALSE(decodeRankTelemetry(bytes + "x", out));

    std::string bad = bytes;
    bad[0] = static_cast<char>(kRankTelemetryVersion + 1);
    EXPECT_FALSE(decodeRankTelemetry(bad, out));
}

TEST(StatAggregator, AcceptEncodedDropsMalformedAndMismatchedRank)
{
    StatAggregator agg;
    agg.acceptEncoded(1, "definitely not telemetry");
    EXPECT_EQ(agg.rankCount(), 0u);

    // A payload that internally claims a different rank than the
    // transport delivered it from is dropped, not trusted.
    agg.acceptEncoded(1, encodeRankTelemetry(sampleTelemetry(2, 10)));
    EXPECT_EQ(agg.rankCount(), 0u);
    EXPECT_FALSE(agg.hasRank(1));
    EXPECT_FALSE(agg.hasRank(2));

    agg.acceptEncoded(2, encodeRankTelemetry(sampleTelemetry(2, 10)));
    EXPECT_EQ(agg.rankCount(), 1u);
    EXPECT_TRUE(agg.hasRank(2));
}

TEST(StatAggregator, KeepsTheNewestTelemetryPerRank)
{
    StatAggregator agg;
    agg.accept(sampleTelemetry(0, 1000));
    agg.accept(sampleTelemetry(1, 2000));
    EXPECT_EQ(agg.rankCount(), 2u);
    EXPECT_EQ(agg.maxCycle(), 2000u);

    agg.accept(sampleTelemetry(0, 3000));
    EXPECT_EQ(agg.rankCount(), 2u);
    EXPECT_EQ(agg.rankTelemetry(0).cycle, 3000u);
    EXPECT_EQ(agg.maxCycle(), 3000u);
}

TEST(StatAggregator, MergedJsonPrefixesNamesByRank)
{
    StatAggregator agg;
    agg.accept(sampleTelemetry(0, 1000));
    agg.accept(sampleTelemetry(1, 2000));

    minijson::ValuePtr doc = minijson::parse(agg.mergedJson());
    EXPECT_DOUBLE_EQ(doc->at("cycle").number, 2000.0);
    const minijson::Value &stats = doc->at("stats");
    ASSERT_TRUE(stats.isObject());
    EXPECT_DOUBLE_EQ(
        stats.at("rank0.cluster.node0.nic.framesSent").number, 42.0);
    EXPECT_DOUBLE_EQ(stats.at("rank0.cluster.node0.os.ipc").number,
                     0.625);
    EXPECT_DOUBLE_EQ(
        stats.at("rank1.cluster.switch0.packetsOut").number, -5.0);
    EXPECT_FALSE(stats.has("cluster.node0.nic.framesSent"))
        << "merged names must be rank-prefixed";
}

TEST(StatAggregator, MergedCsvMatchesRegistryShape)
{
    StatAggregator agg;
    RankTelemetry rt;
    rt.rank = 0;
    rt.cycle = 77;
    rt.stats.values = {{"a.one", 3.0}, {"b.two", 1.5}};
    agg.accept(rt);
    EXPECT_EQ(agg.mergedCsv(),
              "# cycle 77\nstat,value\nrank0.a.one,3\nrank0.b.two,1.5\n");
}

TEST(StatAggregator, MergedCsvQuotesNamesLikeTheRegistry)
{
    // A peer's stat name may legally contain commas or quotes; the
    // merged CSV must RFC-4180-quote the whole field the way
    // StatRegistry::dumpCsv does, or one hostile name shifts every
    // later column.
    StatAggregator agg;
    RankTelemetry rt;
    rt.rank = 2;
    rt.cycle = 9;
    rt.stats.values = {{"plain.name", 1.0},
                       {"with,comma", 2.0},
                       {"with\"quote", 3.0}};
    agg.accept(rt);
    EXPECT_EQ(agg.mergedCsv(),
              "# cycle 9\nstat,value\n"
              "rank2.plain.name,1\n"
              "\"rank2.with,comma\",2\n"
              "\"rank2.with\"\"quote\",3\n");
}

TEST(RankTelemetryCodec, HostileCountsCannotReserveUnboundedMemory)
{
    // A hand-built header claiming ~2^40 stats in a 5-byte body: the
    // decoder must fail cleanly (and fast) instead of reserving
    // terabytes up front on the peer's say-so.
    std::string bytes;
    putVarint(bytes, 1);                  // version
    putVarint(bytes, 0);                  // rank
    putVarint(bytes, 1);                  // round
    putVarint(bytes, 2);                  // cycle
    putVarint(bytes, 1ULL << 40);         // nstats (hostile)
    bytes += "\x01\x01";                  // garbage tail
    RankTelemetry out;
    EXPECT_FALSE(decodeRankTelemetry(bytes, out));
    EXPECT_LT(out.stats.values.capacity(), 1024u)
        << "peer-controlled stat count drove the reserve";

    // Same for the phase count, after a valid empty stats table.
    std::string bytes2;
    putVarint(bytes2, 1);                 // version
    putVarint(bytes2, 0);                 // rank
    putVarint(bytes2, 1);                 // round
    putVarint(bytes2, 2);                 // cycle
    putVarint(bytes2, 0);                 // nstats
    putVarint(bytes2, 1ULL << 40);        // nphases (hostile)
    RankTelemetry out2;
    EXPECT_FALSE(decodeRankTelemetry(bytes2, out2));
    EXPECT_LT(out2.phases.capacity(), 1024u)
        << "peer-controlled phase count drove the reserve";
}

/** A payload header (version, rank 0, round 1, cycle 2) announcing
 *  @p nstats stats. */
std::string
payloadHeader(uint64_t nstats)
{
    std::string bytes;
    putVarint(bytes, kRankTelemetryVersion);
    putVarint(bytes, 0);
    putVarint(bytes, 1);
    putVarint(bytes, 2);
    putVarint(bytes, nstats);
    return bytes;
}

/** Append one stat that keeps @p shared bytes of the previous name
 *  and adds @p suffix, with integer value 0. */
void
putStat(std::string &bytes, uint64_t shared, const std::string &suffix)
{
    putVarint(bytes, shared);
    putVarint(bytes, suffix.size());
    bytes += suffix;
    bytes.push_back(0); // integer tag
    putVarint(bytes, 0);
}

TEST(RankTelemetryCodec, PrefixChainsCannotGrowNamesPastTheCap)
{
    // Each stat keeps the whole previous name and adds one byte: six
    // payload bytes per stat, but the decoder stores every name in
    // full, so n stats would hold n^2/2 bytes of names. The chain is
    // accepted up to kMaxStatNameBytes and refused one byte later.
    const size_t n = kMaxStatNameBytes;
    std::string bytes = payloadHeader(n);
    for (size_t i = 0; i < n; ++i)
        putStat(bytes, i, "x");
    std::string ok = bytes;
    putVarint(ok, 0); // no phases
    RankTelemetry out;
    ASSERT_TRUE(decodeRankTelemetry(ok, out));
    EXPECT_EQ(out.stats.values.back().first.size(), kMaxStatNameBytes);

    std::string over = payloadHeader(4 * n);
    for (size_t i = 0; i < 4 * n; ++i)
        putStat(over, i, "x");
    putVarint(over, 0);
    RankTelemetry out2;
    EXPECT_FALSE(decodeRankTelemetry(over, out2))
        << "a " << 4 * n << "-byte stat name decoded";

    // One suffix over the cap is refused as well.
    std::string wide = payloadHeader(1);
    putStat(wide, 0, std::string(kMaxStatNameBytes + 1, 'y'));
    putVarint(wide, 0);
    EXPECT_FALSE(decodeRankTelemetry(wide, out2));
}

TEST(RankTelemetryCodec, OverlongVarintIsRejectedNotFatal)
{
    // Eleven continuation bytes where the stat count belongs: the
    // shared varint reader panics on that, the peer decoder must not.
    std::string bytes;
    putVarint(bytes, kRankTelemetryVersion);
    putVarint(bytes, 0);
    putVarint(bytes, 1);
    putVarint(bytes, 2);
    bytes += std::string(11, static_cast<char>(0x80));
    bytes.push_back(1);
    RankTelemetry out;
    EXPECT_FALSE(decodeRankTelemetry(bytes, out));
}

TEST(RankTelemetryCodec, LengthThatWrapsTheCursorIsRejected)
{
    // A phase-name length of 2^64-1: added to the read position it
    // wraps to one byte *before* the name, so a wrapping bounds check
    // accepts it and the decoder re-reads the length's last byte as
    // the phase's start cycle.
    std::string bytes = payloadHeader(0);
    putVarint(bytes, 1);         // one phase
    putVarint(bytes, ~0ULL);     // its name length
    putVarint(bytes, 0);         // target cycles (start is re-read)
    bytes += std::string(8, 0);  // host seconds
    RankTelemetry out;
    EXPECT_FALSE(decodeRankTelemetry(bytes, out));
}

TEST(RankTelemetryCodecDeath, EncoderAssertsTheNameCap)
{
    RankTelemetry rt;
    rt.stats.values = {{std::string(kMaxStatNameBytes + 1, 'z'), 1.0}};
    EXPECT_DEATH(encodeRankTelemetry(rt), "RankTelemetry cap");
}

TEST(StatAggregator, MergedTraceAlignsLanesOnSimulatedCycles)
{
    StatAggregator agg;
    agg.accept(sampleTelemetry(0, 1000));
    agg.accept(sampleTelemetry(1, 2000));

    minijson::ValuePtr doc = minijson::parse(agg.mergedTraceJson());
    const minijson::Value &events = doc->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    size_t metadata = 0, spans = 0;
    for (const minijson::ValuePtr &ev : events.array) {
        if (ev->at("ph").str == "M") {
            ++metadata;
            EXPECT_EQ(ev->at("name").str, "process_name");
            continue;
        }
        ++spans;
        EXPECT_EQ(ev->at("ph").str, "X");
        double pid = ev->at("pid").number;
        EXPECT_TRUE(pid == 1.0 || pid == 2.0) << "pid = rank + 1";
        // Lanes align on the simulated clock: ts is the phase's start
        // cycle and dur its cycle span, for both ranks identically.
        if (ev->at("name").str == "run.0") {
            EXPECT_DOUBLE_EQ(ev->at("ts").number, 0.0);
            EXPECT_DOUBLE_EQ(ev->at("dur").number, 600000.0);
        } else {
            EXPECT_EQ(ev->at("name").str, "run.600000");
            EXPECT_DOUBLE_EQ(ev->at("ts").number, 600000.0);
            EXPECT_DOUBLE_EQ(ev->at("dur").number, 40000.0);
        }
    }
    EXPECT_EQ(metadata, 2u) << "one process_name lane per rank";
    EXPECT_EQ(spans, 4u) << "two phases per rank";
}

} // namespace
} // namespace firesim
