/**
 * @file
 * Cross-shard telemetry aggregation (paper Section III-C: the
 * simulation manager's single pane of glass over the whole cluster).
 *
 * Each non-zero rank periodically encodes a RankTelemetry — its full
 * StatRegistry snapshot plus completed SimRateTelemetry phases — into
 * a compact varint payload that the shard transport piggybacks on the
 * RoundDone barrier (net/remote/wire FrameType::Stats). Rank 0 feeds
 * every payload (and its own local snapshot) into a StatAggregator,
 * which keeps the latest view per rank and renders:
 *
 *  - mergedJson()/mergedCsv(): one global stat tree with per-rank
 *    `rankK.` name prefixes, byte-equivalent to the single-process
 *    dump modulo those prefixes and host-timing keys (pinned by
 *    tests/obs),
 *  - mergedTraceJson(): one Chrome trace with a process lane per rank,
 *    aligned on the *simulated* cycle clock (ts = phase start cycle),
 *    so cross-shard skew is visible against a common time base.
 *
 * The encoding is host-observability-only: it never feeds back into
 * simulation state, so shipping it cannot perturb determinism.
 */

#ifndef FIRESIM_TELEMETRY_AGGREGATE_HH
#define FIRESIM_TELEMETRY_AGGREGATE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/units.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_event.hh"

namespace firesim
{

/** Bumped when the RankTelemetry payload layout changes. */
constexpr uint32_t kRankTelemetryVersion = 1;

/**
 * Longest stat name the payload carries. Prefix compression lets each
 * stat extend the previous name by one byte for about five wire bytes,
 * and the decoder stores every name in full, so without a cap a
 * payload of n bytes decodes into O(n^2) bytes of names. With it a
 * stat (at least 4 wire bytes) holds at most a 128-byte name, so a
 * 1 MiB Stats frame decodes into at most ~42 MiB instead of ~15 GB.
 * The longest name a 1024-node Table III cluster registers is 42
 * bytes (`cluster.node1000.blockdev.interruptsRaised`), 48 with a
 * hart per blade (`cluster.node1000.hart0.host.decode.invalidations`);
 * 128 leaves room for deeper topologies and longer component names.
 * The encoder asserts the cap, so a real registry never produces a
 * payload the decoder refuses.
 */
constexpr size_t kMaxStatNameBytes = 128;

/** One rank's point-in-time telemetry, as shipped to rank 0. */
struct RankTelemetry
{
    uint32_t rank = 0;
    uint64_t round = 0;
    Cycles cycle = 0;
    StatSnapshot stats;
    std::vector<SimRateTelemetry::Phase> phases;
};

/**
 * Varint encoding: version, rank, round, cycle, then the stats with
 * common-prefix name compression (dotted stat trees share long
 * prefixes) and integral values as zigzag varints, then the phases.
 */
std::string encodeRankTelemetry(const RankTelemetry &rt);

/** Strict decode; false (with @p out unspecified) on malformed or
 *  truncated bytes, or a stat name over kMaxStatNameBytes — network
 *  payloads never panic. */
bool decodeRankTelemetry(const std::string &bytes, RankTelemetry &out);

/**
 * Rank 0's merge point. accept() keeps the newest telemetry per rank
 * (rank 0 inserts its own local snapshot the same way); the merged
 * renderings walk ranks in ascending order.
 */
class StatAggregator
{
  public:
    void accept(RankTelemetry rt);

    /** Decode + accept a wire payload; warns and drops on malformed
     *  bytes (a sick peer must not kill the aggregator). */
    void acceptEncoded(uint32_t rank, const std::string &payload);

    size_t rankCount() const { return byRank.size(); }
    bool hasRank(uint32_t rank) const { return byRank.count(rank) != 0; }
    const RankTelemetry &rankTelemetry(uint32_t rank) const;

    /** Highest cycle any rank has reported (the merged dump stamp). */
    Cycles maxCycle() const;

    /** {"cycle": N, "stats": {"rank0.a.b": v, ...}} — same shape as
     *  StatRegistry::dumpJson with rank-prefixed names. */
    std::string mergedJson() const;

    /** CSV matching StatRegistry::dumpCsv, rank-prefixed. */
    std::string mergedCsv() const;

    /** Chrome trace: pid = rank + 1, one lane per rank, ts/dur in
     *  simulated cycles (reported as trace microseconds). */
    std::string mergedTraceJson() const;

  private:
    std::map<uint32_t, RankTelemetry> byRank;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_AGGREGATE_HH
