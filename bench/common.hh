/**
 * @file
 * Shared helpers for the experiment-reproduction benchmarks. Each
 * binary regenerates one table or figure from the paper (see
 * DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
 * results).
 *
 * Every bench reads its run configuration from one command line,
 * parsed against one flag table (kFlagTable) straight into the
 * ClusterConfig prototype its clusters start from (clusterConfig()).
 */

#ifndef FIRESIM_BENCH_COMMON_HH
#define FIRESIM_BENCH_COMMON_HH

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/table.hh"
#include "base/units.hh"
#include "manager/cluster.hh"

namespace firesim::bench
{

/** Print the standard experiment banner. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::printf("================================================================\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    std::printf("================================================================\n");
}

/** Paper-reported reference value, for side-by-side printing. */
inline std::string
paperRef(const std::string &what)
{
    return "paper: " + what;
}

/**
 * True when FIRESIM_FULL=1 requests full-scale (slow) runs; unset or
 * 0 means reduced scale. Any other value exits 2 rather than silently
 * picking a scale ("true" used to run reduced, "1x" full).
 */
inline bool
fullScale()
{
    const char *env = std::getenv("FIRESIM_FULL");
    if (!env || std::strcmp(env, "0") == 0)
        return false;
    if (std::strcmp(env, "1") == 0)
        return true;
    std::fprintf(stderr, "error: FIRESIM_FULL expects 1 or 0, got '%s'\n",
                 env);
    std::exit(2);
}

/** Everything the bench command line sets: the ClusterConfig prototype
 *  every bench cluster starts from, plus three bench-only knobs. */
struct BenchFlags
{
    ClusterConfig cluster;
    /** Snapshot file for periodic + final checkpoints ("" = none). */
    std::string checkpointPath;
    /** Checkpoint every N fabric rounds; 0 = only the final
     *  signal-driven snapshot. */
    unsigned checkpointEvery = 0;
    /** Snapshot to resume from ("" = fresh run). */
    std::string restorePath;
};

/** printf into a std::string (knob errors echo arbitrary values). */
__attribute__((format(printf, 1, 2))) inline std::string
errorf(const char *fmt, ...)
{
    va_list ap, ap2;
    va_start(ap, fmt);
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string s(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
    va_end(ap2);
    return s;
}

/**
 * Parse @p text as a non-negative decimal integer into @p out. Anything
 * else — empty, leading whitespace (strtoul would skip it), trailing
 * junk, a bare or negative sign, overflow of unsigned — returns an
 * error naming @p what and leaves @p out alone.
 */
template <typename T>
inline std::string
parseUnsignedKnob(const char *what, const char *text, T &out)
{
    const char *p = *text == '+' ? text + 1 : text;
    bool digits = *p >= '0' && *p <= '9';
    char *end = nullptr;
    errno = 0;
    unsigned long v = digits ? std::strtoul(p, &end, 10) : 0;
    if (!digits || *end != '\0' || errno == ERANGE || v > UINT_MAX)
        return errorf("%s expects a non-negative integer, got '%s'", what,
                      text);
    out = static_cast<T>(v);
    return "";
}

/** Parse exactly "on" or "off". */
inline std::string
parseOnOffKnob(const char *what, const char *text, bool &out)
{
    if (std::strcmp(text, "on") != 0 && std::strcmp(text, "off") != 0)
        return errorf("%s expects on or off, got '%s'", what, text);
    out = std::strcmp(text, "on") == 0;
    return "";
}

/**
 * Parse HOST:PORT into the rendezvous fields of @p shard. The host may
 * not be empty or contain a second colon (no IPv6 literals — use a
 * hostname); the port must be a strict decimal in [1, 65535].
 */
inline std::string
parseShardConnectKnob(const char *what, const char *text, ShardSpec &shard)
{
    std::string s = text;
    size_t colon = s.find(':');
    if (colon == std::string::npos || colon == 0 ||
        s.find(':', colon + 1) != std::string::npos)
        return errorf("%s expects HOST:PORT, got '%s'", what, text);
    unsigned port = 0;
    std::string e = parseUnsignedKnob(what, text + colon + 1, port);
    if (!e.empty())
        return e;
    if (port == 0 || port > 65535)
        return errorf("%s port must be in [1, 65535], got %u", what, port);
    shard.connectHost = s.substr(0, colon);
    shard.basePort = static_cast<uint16_t>(port);
    return "";
}

/**
 * Parse a value in (0, 1] for --straggler-alpha. The monitor folds
 * alpha into a /256 fixed-point weight; values outside (0, 1] would
 * make the complement weight underflow, so they are rejected rather
 * than silently clamped.
 */
inline std::string
parseAlphaKnob(const char *what, const char *text, double &out)
{
    bool starts = (*text >= '0' && *text <= '9') || *text == '.';
    char *end = nullptr;
    errno = 0;
    double v = starts ? std::strtod(text, &end) : 0.0;
    if (!starts || *end != '\0' || errno == ERANGE || !(v > 0.0) ||
        v > 1.0)
        return errorf("%s expects a value in (0, 1], got '%s'", what, text);
    out = v;
    return "";
}

/** The flag groups of kFlagTable, as bits: a bench declares the set it
 *  honours (Honours), and a flag outside it is an error. */
enum FlagGroup : unsigned
{
    kHostsGroup = 1u << 0,      //!< in-process fabric worker threads
    kShardGroup = 1u << 1,      //!< distributed (multi-process) runs
    kShmRingGroup = 1u << 2,    //!< shared-memory ring capacity
    kCheckpointGroup = 1u << 3, //!< checkpoint / restore
    kMonitorGroup = 1u << 4,    //!< live observability
    kHartGroup = 1u << 5,       //!< RocketCore decode cache
    kAllGroups = (1u << 6) - 1,
    kOneProcess = 1u << 6, //!< not a group: --shards must stay 1
};

/** Which flags a bench honours (parseCommonFlags). */
enum class Honours : unsigned
{
    /** Every flag: the bench builds Clusters and runs sharded. */
    EveryFlag = kAllGroups,
    /** Every flag, but --shards above 1 is an error: the workload
     *  needs the whole cluster in one process. A rank builds only the
     *  nodes it owns, so driving every node by its global index,
     *  attaching a cluster-wide health monitor, or picking "the"
     *  pinger would crash or silently run a different experiment. */
    SingleProcess = kAllGroups | kOneProcess,
    /** --parallel-hosts only: the bench drives a raw TokenFabric. */
    HostsOnly = kHostsGroup,
    /** --shard-shm-ring only: the bench drives raw ShardTransports. */
    ShmRingOnly = kShmRingGroup,
    /** No flag at all: the bench builds no Cluster. */
    None = 0,
};

/**
 * One command-line flag: `name` or `name=VALUE`. `value` names the
 * VALUE (nullptr for a bare switch). `parse` stores the VALUE (nullptr
 * for a bare switch) into the BenchFlags and returns "" or an error.
 */
struct FlagRow
{
    const char *name;
    const char *value;
    unsigned group;
    std::string (*parse)(const char *flag, const char *text, BenchFlags &f);
};

/**
 * Every flag a bench understands. Simulated results are bit-identical
 * for every combination; only wall-clock time and the files the flags
 * name change. Malformed values are an error, not a silent fallback.
 */
inline constexpr FlagRow kFlagTable[] = {
    // Fabric worker threads (ClusterConfig::parallelHosts); 0 means 1.
    {"--parallel-hosts", "N", kHostsGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text, f.cluster.parallelHosts);
     }},
    // Split the cluster across N OS processes (default 1).
    {"--shards", "N", kShardGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text, f.cluster.shard.shards);
     }},
    // This process's shard, 0 <= K < N.
    {"--shard-rank", "K", kShardGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text, f.cluster.shard.rank);
     }},
    // Rendezvous address; rank r listens on PORT + r.
    {"--shard-connect", "HOST:PORT", kShardGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseShardConnectKnob(flag, text, f.cluster.shard);
     }},
    // Wall-clock cap on the whole rendezvous connect loop (0 =
    // attempt-bounded only). The transport keeps it in an int, so a
    // value above INT_MAX would wrap negative and drop the deadline.
    {"--shard-connect-timeout", "MS", kShardGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         unsigned ms = 0;
         std::string e = parseUnsignedKnob(flag, text, ms);
         if (e.empty() && ms > static_cast<unsigned>(INT_MAX))
             e = errorf("%s must be at most %d ms, got %u", flag, INT_MAX,
                        ms);
         if (e.empty())
             f.cluster.shard.connectTimeoutMs = static_cast<int>(ms);
         return e;
     }},
    // Cross-shard fabric: auto (shm for same-host peers, tcp across
    // hosts; the default) | shm | tcp | unix.
    {"--shard-transport", "KIND", kShardGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         if (parseTransportKind(text, f.cluster.shard.transport))
             return std::string();
         return errorf("%s expects auto, shm, tcp, or unix, got '%s'", flag,
                       text);
     }},
    // Per-direction shm ring capacity, rounded up to a power of two by
    // the link (default 1048576).
    {"--shard-shm-ring", "BYTES", kShmRingGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text, f.cluster.shard.shmRingBytes);
     }},
    // Snapshot file for periodic + final checkpoints.
    {"--checkpoint", "PATH", kCheckpointGroup,
     [](const char *, const char *text, BenchFlags &f) {
         f.checkpointPath = text;
         return std::string();
     }},
    // Checkpoint every N fabric rounds (needs --checkpoint).
    {"--checkpoint-every", "N", kCheckpointGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text, f.checkpointEvery);
     }},
    // Resume the bench's clusters from their snapshots.
    {"--restore", "PATH", kCheckpointGroup,
     [](const char *, const char *text, BenchFlags &f) {
         f.restorePath = text;
         return std::string();
     }},
    // Round-latency EWMA weight of the newest sample, in (0, 1]
    // (default 0.2).
    {"--straggler-alpha", "A", kMonitorGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseAlphaKnob(flag, text, f.cluster.monitor.ewmaAlpha);
     }},
    // Monitoring heartbeat every N fabric rounds (0 = off).
    {"--heartbeat-every", "N", kMonitorGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text,
                                  f.cluster.monitor.heartbeatEvery);
     }},
    // Human-readable status line every SEC wall seconds (0 = off).
    {"--status-interval", "SEC", kMonitorGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text,
                                  f.cluster.monitor.statusIntervalSec);
     }},
    // Prometheus text file, atomically refreshed on every heartbeat.
    {"--metrics-file", "PATH", kMonitorGroup,
     [](const char *, const char *text, BenchFlags &f) {
         f.cluster.monitor.metricsPath = text;
         return std::string();
     }},
    // Enable the crash flight recorder and its fatal-signal dump.
    {"--flight-recorder", nullptr, kMonitorGroup,
     [](const char *, const char *, BenchFlags &f) {
         f.cluster.flightRecorder.enabled = true;
         f.cluster.flightRecorder.installSignalHandler = true;
         return std::string();
     }},
    // Flight recorder ring depth in events (default 256).
    {"--flight-recorder-depth", "N", kMonitorGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text, f.cluster.flightRecorder.depth);
     }},
    // Host-side predecode + superblock fast path for RocketCore harts
    // (default on).
    {"--decode-cache", "on|off", kHartGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseOnOffKnob(flag, text, f.cluster.hart.decodeCache);
     }},
    // Decode-cache slots, rounded up to a power of two (default 32768).
    {"--decode-cache-entries", "N", kHartGroup,
     [](const char *flag, const char *text, BenchFlags &f) {
         return parseUnsignedKnob(flag, text,
                                  f.cluster.hart.decodeCacheEntries);
     }},
};

/** The flag table's names in @p groups, for error messages. */
inline std::string
flagNames(unsigned groups)
{
    std::string names;
    for (const FlagRow &row : kFlagTable)
        if (groups & row.group)
            names += std::string(names.empty() ? "" : ", ") + row.name;
    return names;
}

/**
 * Parse argv[1..argc) against kFlagTable into @p out, accepting only
 * the flags @p honours declares, then cross-check the result. Returns
 * "" or one error message (without the "error: " prefix) naming the
 * offending flag; never exits. A later flag overrides an earlier one.
 * An argument not in the table, a flag outside the declared groups, a
 * value on a bare switch and a missing value are all errors.
 */
inline std::string
parseFlags(int argc, char **argv, Honours honours, BenchFlags &out)
{
    std::string bench = argc > 0 ? argv[0] : "this bench";
    bench = bench.substr(bench.rfind('/') + 1);
    const unsigned groups = static_cast<unsigned>(honours);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const char *value = eq == std::string::npos ? nullptr
                                                    : argv[i] + eq + 1;
        const FlagRow *row = nullptr;
        for (const FlagRow &r : kFlagTable)
            if (name == r.name)
                row = &r;
        if (!row)
            return bench + " does not support " + name + ": no such flag";
        if (!(groups & row->group))
            return bench + " does not support " + name +
                   (groups ? ": it honours only " + flagNames(groups)
                           : ": it takes no flags");
        if (row->value && !value)
            return name + " expects " + name + "=" + row->value;
        if (!row->value && value)
            return name + " takes no value, got '" + arg + "'";
        std::string e = row->parse(row->name, value, out);
        if (!e.empty())
            return e;
    }

    ClusterConfig &cc = out.cluster;
    if (cc.parallelHosts == 0)
        cc.parallelHosts = 1;
    if (cc.shard.shards == 0)
        return "--shards must be at least 1";
    if (cc.shard.shards > 1 && (groups & kOneProcess))
        return errorf("%s does not support --shards=%u: its workload "
                      "needs the whole cluster in one process",
                      bench.c_str(), cc.shard.shards);
    if (cc.shard.rank >= cc.shard.shards)
        return errorf("--shard-rank=%u out of range for --shards=%u (need "
                      "0 <= rank < shards)",
                      cc.shard.rank, cc.shard.shards);
    if (cc.shard.shards > 1 && cc.shard.basePort == 0)
        return errorf("--shards=%u needs --shard-connect=HOST:PORT for the "
                      "rendezvous",
                      cc.shard.shards);
    if (cc.shard.shmRingBytes == 0)
        return "--shard-shm-ring must be at least 1";
    if (out.checkpointEvery != 0 && out.checkpointPath.empty())
        return errorf("--checkpoint-every=%u needs --checkpoint=PATH",
                      out.checkpointEvery);
    if (cc.flightRecorder.depth == 0)
        return "--flight-recorder-depth must be at least 1";
    if (cc.hart.decodeCacheEntries == 0)
        return "--decode-cache-entries must be at least 1";
    return "";
}

/** This process's parsed command line (parseCommonFlags). */
inline BenchFlags &
parsedFlags()
{
    static BenchFlags flags;
    return flags;
}

/** The ClusterConfig every bench cluster starts from: the defaults
 *  plus the command line's flags. */
inline const ClusterConfig &
clusterConfig()
{
    return parsedFlags().cluster;
}

/**
 * Parse this bench's command line (parseFlags) into parsedFlags(); on
 * an error print it and exit 2, before any output or rendezvous. A
 * malformed FIRESIM_FULL is caught here too. @p honours declares the
 * flags the bench acts on.
 */
inline void
parseCommonFlags(int argc, char **argv, Honours honours)
{
    fullScale();
    BenchFlags flags;
    std::string e = parseFlags(argc, argv, honours, flags);
    if (!e.empty()) {
        std::fprintf(stderr, "error: %s\n", e.c_str());
        std::exit(2);
    }
    parsedFlags() = std::move(flags);
    const ClusterConfig &cc = clusterConfig();
    if (cc.parallelHosts > 1)
        std::printf("[bench] parallel hosts: %u fabric worker threads "
                    "(advance units striped round-robin)\n",
                    cc.parallelHosts);
    if (cc.shard.shards > 1)
        std::printf("[bench] distributed: shard %u of %u, rendezvous "
                    "%s:%u, transport %s\n",
                    cc.shard.rank, cc.shard.shards,
                    cc.shard.connectHost.c_str(), cc.shard.basePort,
                    transportKindName(cc.shard.transport));
}

/**
 * Per-sweep-point snapshot path: the bench's k-th cluster checkpoints
 * to `<path>.run<k>` (bare path for k == 0), so a termination signal
 * can land on any point of a multi-configuration sweep and --restore
 * still pairs every snapshot with the cluster it was taken from.
 */
inline std::string
ordinalSnapPath(const std::string &path, uint64_t ordinal)
{
    return ordinal == 0 ? path
                        : path + ".run" + std::to_string(ordinal);
}

/** Sweep bookkeeping for --checkpoint / --restore. */
struct SweepState
{
    /** Clusters this bench has passed through maybeResume(); the
     *  current cluster's sweep ordinal is this minus one. */
    uint64_t clusters = 0;
    /** Cycles already covered by a --restore replay. The first
     *  runClusterUs/runClusterCycles spans consume this credit instead
     *  of re-running, so a resumed bench follows the same
     *  absolute-cycle trajectory as the uninterrupted one. */
    uint64_t resumeCredit = 0;
};

inline SweepState &
sweepState()
{
    static SweepState state;
    return state;
}

/**
 * Apply --restore to this cluster if a snapshot exists for its sweep
 * ordinal (ordinalSnapPath): replay to the snapshot cycle and verify
 * + apply the saved state (ADL finds firesim::resumeFromSnapshot /
 * snapshotExists). Call once per cluster, after all setup — fault
 * plans, telemetry, workloads — so the replay matches the saved run.
 * Sweep points the interrupted run never checkpointed re-run fresh;
 * a snapshot that exists but fails to resume is an error, not a
 * silent fresh start. No-op without --restore.
 */
template <typename ClusterT>
inline void
maybeResume(ClusterT &clu)
{
    SweepState &sweep = sweepState();
    uint64_t ordinal = sweep.clusters++;
    sweep.resumeCredit = 0; // credit never crosses clusters
    const std::string &restore = parsedFlags().restorePath;
    if (restore.empty())
        return;
    std::string path = ordinalSnapPath(restore, ordinal);
    if (!snapshotExists(clu, path))
        return;
    std::string e = resumeFromSnapshot(clu, path);
    if (!e.empty()) {
        std::fprintf(stderr, "error: --restore=%s: %s\n",
                     path.c_str(), e.c_str());
        std::exit(1);
    }
    sweep.resumeCredit = clu.now();
    std::printf("[bench] resumed from %s at cycle %llu\n",
                path.c_str(), (unsigned long long)clu.now());
}

/**
 * Advance @p clu by @p cycles, honouring --checkpoint /
 * --checkpoint-every (ADL finds firesim::runWithCheckpoints) and the
 * resume credit left by maybeResume(). Returns false when a
 * termination signal stopped the run early — the bench should skip
 * its measurements and exit cleanly (a final snapshot was written).
 */
template <typename ClusterT>
inline bool
runClusterCycles(ClusterT &clu, uint64_t cycles)
{
    SweepState &sweep = sweepState();
    uint64_t skip = sweep.resumeCredit < cycles ? sweep.resumeCredit
                                                : cycles;
    sweep.resumeCredit -= skip;
    cycles -= skip;
    if (cycles == 0)
        return true;
    const BenchFlags &flags = parsedFlags();
    if (flags.checkpointPath.empty()) {
        clu.run(cycles);
        return true;
    }
    uint64_t ordinal = sweep.clusters ? sweep.clusters - 1 : 0;
    return runWithCheckpoints(
        clu, cycles, ordinalSnapPath(flags.checkpointPath, ordinal),
        flags.checkpointEvery);
}

/** runClusterCycles for a span given in target microseconds. */
template <typename ClusterT>
inline bool
runClusterUs(ClusterT &clu, double us)
{
    return runClusterCycles(clu, clu.clock().cyclesFromUs(us));
}

/** Wall-clock stopwatch for simulation-rate measurements. */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

} // namespace firesim::bench

#endif // FIRESIM_BENCH_COMMON_HH
