/**
 * @file
 * Shared helpers for the experiment-reproduction benchmarks. Each
 * binary regenerates one table or figure from the paper (see
 * DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
 * results).
 */

#ifndef FIRESIM_BENCH_COMMON_HH
#define FIRESIM_BENCH_COMMON_HH

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/table.hh"
#include "base/units.hh"
#include "net/remote/peer_link.hh"
#include "net/sched.hh"

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

/** True when the environment requests full-scale (slow) runs. */
inline bool
fullScale()
{
    const char *env = std::getenv("FIRESIM_FULL");
    return env && env[0] == '1';
}

/**
 * Worker threads for the token fabric (ClusterConfig::parallelHosts /
 * TokenFabric::setParallelHosts), shared by every bench binary. Set by
 * parseCommonFlags(); defaults to 1 (single-threaded).
 */
inline unsigned &
parallelHostsRef()
{
    static unsigned hosts = 1;
    return hosts;
}

inline unsigned
parallelHosts()
{
    return parallelHostsRef();
}

/** Round-scheduler policy (ClusterConfig::schedPolicy), set by
 *  parseCommonFlags(); defaults to round-robin. */
inline SchedPolicy &
schedPolicyRef()
{
    static SchedPolicy policy = SchedPolicy::RoundRobin;
    return policy;
}

inline SchedPolicy
schedPolicy()
{
    return schedPolicyRef();
}

/** Switch egress-slice width (ClusterConfig::switchSlicePorts), set by
 *  parseCommonFlags(); defaults to 4 (0 = monolithic switches). */
inline unsigned &
switchSlicePortsRef()
{
    static unsigned ports = 4;
    return ports;
}

inline unsigned
switchSlicePorts()
{
    return switchSlicePortsRef();
}

/**
 * Parse @p text as a non-negative decimal integer; on anything else —
 * empty, trailing junk, a sign, overflow — print a clear error naming
 * @p what and exit(2). std::atoi silently turned "abc" and "-3" into
 * garbage worker counts; benches now refuse instead.
 */
inline unsigned
parseUnsignedKnob(const char *what, const char *text)
{
    const char *p = text;
    if (p && *p == '+')
        ++p; // strtoul accepts "+3"; keep it, reject bare signs below
    // strtoul also skips leading whitespace, so " 8" used to parse as
    // 8 — an easy way for a stray quote in a launcher script to hide a
    // malformed knob. Demand the payload start with a digit.
    bool digits = p && *p >= '0' && *p <= '9';
    char *end = nullptr;
    errno = 0;
    unsigned long v = digits ? std::strtoul(p, &end, 10) : 0;
    if (!digits || end == p || *end != '\0' || errno == ERANGE ||
        v > UINT_MAX) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s'\n",
                     what, text ? text : "");
        std::exit(2);
    }
    return static_cast<unsigned>(v);
}

/** Host-side decode-cache fast path for RocketCore harts
 *  (CoreConfig::decodeCache), set by parseCommonFlags(); on by
 *  default, --decode-cache=off is the escape hatch. Bit-identical
 *  simulation results either way — only wall-clock changes. */
inline bool &
decodeCacheRef()
{
    static bool on = true;
    return on;
}

inline bool
decodeCache()
{
    return decodeCacheRef();
}

/** Decode-cache capacity in entries (CoreConfig::decodeCacheEntries),
 *  set by parseCommonFlags(); rounded up to a power of two. */
inline unsigned &
decodeCacheEntriesRef()
{
    static unsigned entries = 1u << 15;
    return entries;
}

inline unsigned
decodeCacheEntries()
{
    return decodeCacheEntriesRef();
}

/** Parse on|off for --decode-cache or exit(2). */
inline bool
parseOnOffKnob(const char *what, const char *text)
{
    std::string s = text ? text : "";
    if (s == "on")
        return true;
    if (s == "off")
        return false;
    std::fprintf(stderr, "error: %s expects on or off, got '%s'\n",
                 what, s.c_str());
    std::exit(2);
}

/** Shard count for distributed runs (ClusterConfig::shard.shards),
 *  set by parseCommonFlags(); defaults to 1 (single process). */
inline unsigned &
shardsRef()
{
    static unsigned shards = 1;
    return shards;
}

inline unsigned
shards()
{
    return shardsRef();
}

/** This process's shard rank (ClusterConfig::shard.rank). */
inline unsigned &
shardRankRef()
{
    static unsigned rank = 0;
    return rank;
}

inline unsigned
shardRank()
{
    return shardRankRef();
}

/** Rendezvous host for cross-shard TCP (ClusterConfig::shard). */
inline std::string &
shardConnectHostRef()
{
    static std::string host = "127.0.0.1";
    return host;
}

/** Rendezvous base port; rank r listens on basePort + r. */
inline unsigned &
shardBasePortRef()
{
    static unsigned port = 0;
    return port;
}

/**
 * Parse HOST:PORT for --shard-connect. The host may not be empty or
 * contain a second colon (no IPv6 literals — use a hostname), and the
 * port goes through parseUnsignedKnob and must fit in 16 bits.
 */
inline void
parseShardConnectKnob(const char *what, const char *text)
{
    std::string s = text ? text : "";
    size_t colon = s.find(':');
    if (colon == std::string::npos || colon == 0 ||
        s.find(':', colon + 1) != std::string::npos) {
        std::fprintf(stderr, "error: %s expects HOST:PORT, got '%s'\n",
                     what, s.c_str());
        std::exit(2);
    }
    unsigned port = parseUnsignedKnob(what, s.c_str() + colon + 1);
    if (port == 0 || port > 65535) {
        std::fprintf(stderr,
                     "error: %s port must be in [1, 65535], got %u\n",
                     what, port);
        std::exit(2);
    }
    shardConnectHostRef() = s.substr(0, colon);
    shardBasePortRef() = port;
}

/** Cross-shard fabric preference (--shard-transport): auto negotiates
 *  shm for same-host peers, tcp across hosts. */
inline TransportKind &
shardTransportRef()
{
    static TransportKind kind = TransportKind::Auto;
    return kind;
}

/** Per-direction shm ring capacity in bytes (--shard-shm-ring);
 *  rounded up to a power of two by the link. */
inline unsigned &
shardShmRingRef()
{
    static unsigned bytes = 1u << 20;
    return bytes;
}

/** Parse auto|shm|tcp|unix for --shard-transport or exit(2). */
inline TransportKind
parseTransportKnob(const char *what, const char *text)
{
    TransportKind kind;
    if (!text || !parseTransportKind(text, kind)) {
        std::fprintf(stderr,
                     "error: %s expects auto, shm, tcp, or unix, got "
                     "'%s'\n", what, text ? text : "");
        std::exit(2);
    }
    return kind;
}

/** Server->rank placement policy (--shard-policy): 0 = contiguous
 *  block split, 1 = cost-aware (needs a --shard-profile-in from a
 *  prior measured run). Stored as the ShardPolicy enum's underlying
 *  value so this header stays manager-free. */
inline unsigned &
shardPolicyIdRef()
{
    static unsigned policy = 0;
    return policy;
}

/** Deployment profile to feed the cost-aware mapper
 *  (--shard-profile-in; sharded writers produce `<path>.rank<k>`
 *  files which are merged automatically). */
inline std::string &
shardProfileInRef()
{
    static std::string path;
    return path;
}

/** Where to write this run's measured deployment profile at teardown
 *  (--shard-profile-out; empty = don't). */
inline std::string &
shardProfileOutRef()
{
    static std::string path;
    return path;
}

/** Parse block|cost for --shard-policy or exit(2). */
inline unsigned
parseShardPolicyKnob(const char *what, const char *text)
{
    std::string s = text ? text : "";
    if (s == "block")
        return 0;
    if (s == "cost")
        return 1;
    std::fprintf(stderr, "error: %s expects block or cost, got '%s'\n",
                 what, s.c_str());
    std::exit(2);
}

/** Round-latency EWMA smoothing weight (--straggler-alpha), the
 *  weight of the newest sample (MonitorConfig::ewmaAlpha). */
inline double &
stragglerAlphaRef()
{
    static double alpha = 0.2;
    return alpha;
}

/**
 * Parse @p text as a double in (0, 1] for --straggler-alpha or
 * exit(2). The monitor folds alpha into a /256 fixed-point weight;
 * values outside (0, 1] would make the complement weight underflow,
 * so they are rejected here rather than silently clamped.
 */
inline double
parseAlphaKnob(const char *what, const char *text)
{
    const char *p = text;
    bool starts = p && ((*p >= '0' && *p <= '9') || *p == '.');
    char *end = nullptr;
    errno = 0;
    double v = starts ? std::strtod(p, &end) : 0.0;
    if (!starts || end == p || *end != '\0' || errno == ERANGE ||
        !(v > 0.0) || v > 1.0) {
        std::fprintf(stderr,
                     "error: %s expects a value in (0, 1], got '%s'\n",
                     what, text ? text : "");
        std::exit(2);
    }
    return v;
}

/** Snapshot path for periodic/final checkpoints (--checkpoint). */
inline std::string &
checkpointPathRef()
{
    static std::string path;
    return path;
}

/** Checkpoint every N fabric rounds (--checkpoint-every); 0 = only
 *  the final signal-driven snapshot. */
inline unsigned &
checkpointEveryRef()
{
    static unsigned every = 0;
    return every;
}

/** Snapshot to resume from (--restore); empty = fresh run. */
inline std::string &
restorePathRef()
{
    static std::string path;
    return path;
}

/** Wall-clock cap in ms on the shard rendezvous connect loop
 *  (--shard-connect-timeout); 0 = attempt-bounded only. */
inline unsigned &
shardConnectTimeoutMsRef()
{
    static unsigned ms = 0;
    return ms;
}

/** Heartbeat cadence in fabric rounds (--heartbeat-every); 0 = no
 *  heartbeats (ClusterConfig::monitor.heartbeatEvery). */
inline unsigned &
heartbeatEveryRef()
{
    static unsigned every = 0;
    return every;
}

/** Human status line every N wall seconds (--status-interval);
 *  0 = off (ClusterConfig::monitor.statusIntervalSec). */
inline unsigned &
statusIntervalRef()
{
    static unsigned sec = 0;
    return sec;
}

/** Prometheus text-exposition file, atomically refreshed on every
 *  heartbeat (--metrics-file); empty = off. */
inline std::string &
metricsFileRef()
{
    static std::string path;
    return path;
}

/** Crash flight recorder switch (--flight-recorder). */
inline bool &
flightRecorderRef()
{
    static bool on = false;
    return on;
}

/** Flight recorder ring depth in events (--flight-recorder-depth). */
inline unsigned &
flightRecorderDepthRef()
{
    static unsigned depth = 256;
    return depth;
}

/**
 * Cycles already covered by a --restore replay. The first
 * runClusterUs/runClusterCycles spans consume this credit instead of
 * re-running, so a resumed bench follows the same absolute-cycle
 * trajectory as the uninterrupted one.
 */
inline uint64_t &
resumeCreditRef()
{
    static uint64_t credit = 0;
    return credit;
}

/** Number of clusters this bench has passed through maybeResume();
 *  the current cluster's sweep ordinal is this minus one. */
inline uint64_t &
runOrdinalRef()
{
    static uint64_t count = 0;
    return count;
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

/** Parse @p text as a scheduler policy name or exit(2). */
inline SchedPolicy
parseSchedKnob(const char *what, const char *text)
{
    SchedPolicy policy;
    if (!text || !parseSchedPolicy(text, policy)) {
        std::fprintf(stderr,
                     "error: %s expects rr, cost, or steal, got '%s'\n",
                     what, text ? text : "");
        std::exit(2);
    }
    return policy;
}

/** Whether a bench can run as one rank of a sharded cluster. Benches
 *  that drive every node by its global index cannot: a rank builds
 *  only the nodes it owns. */
enum class Sharding
{
    Supported,
    SingleProcessOnly,
};

/**
 * Parse the flags every experiment binary understands:
 *   --parallel-hosts=N       fabric worker threads
 *                            (env FIRESIM_PARALLEL_HOSTS)
 *   --sched-policy=P         round scheduler: rr | cost | steal
 *                            (env FIRESIM_SCHED_POLICY)
 *   --switch-slice-ports=N   egress ports per switch advance slice,
 *                            0 = monolithic switches
 *                            (env FIRESIM_SWITCH_SLICE_PORTS)
 *   --shards=N               split the cluster across N OS processes
 *                            (env FIRESIM_SHARDS; default 1)
 *   --shard-rank=K           this process's shard, 0 <= K < N
 *                            (env FIRESIM_SHARD_RANK)
 *   --shard-connect=HOST:PORT  rendezvous address; rank r listens on
 *                            PORT + r (env FIRESIM_SHARD_CONNECT)
 *   --shard-connect-timeout=MS  cap the whole rendezvous connect loop
 *                            (env FIRESIM_SHARD_CONNECT_TIMEOUT; 0 =
 *                            attempt-bounded only)
 *   --shard-transport=KIND   cross-shard fabric: auto | shm | tcp |
 *                            unix (env FIRESIM_SHARD_TRANSPORT;
 *                            default auto — shm for same-host peers,
 *                            tcp across hosts)
 *   --shard-shm-ring=BYTES   per-direction shm ring capacity, rounded
 *                            up to a power of two
 *                            (env FIRESIM_SHARD_SHM_RING;
 *                            default 1048576)
 *   --shard-policy=P         server->rank placement: block | cost
 *                            (env FIRESIM_SHARD_POLICY; default block;
 *                            cost needs --shard-profile-in)
 *   --shard-profile-in=PATH  measured deployment profile feeding the
 *                            cost-aware mapper
 *                            (env FIRESIM_SHARD_PROFILE_IN)
 *   --shard-profile-out=PATH write this run's measured profile at
 *                            teardown (env FIRESIM_SHARD_PROFILE_OUT)
 *   --straggler-alpha=A      round-latency EWMA weight of the newest
 *                            sample, in (0, 1]
 *                            (env FIRESIM_STRAGGLER_ALPHA; default 0.2)
 *   --checkpoint=PATH        snapshot file for periodic + final
 *                            checkpoints (env FIRESIM_CHECKPOINT)
 *   --checkpoint-every=N     checkpoint every N fabric rounds
 *                            (env FIRESIM_CHECKPOINT_EVERY; needs
 *                            --checkpoint)
 *   --restore=PATH           resume the first cluster this bench
 *                            builds from a snapshot
 *                            (env FIRESIM_RESTORE)
 *   --heartbeat-every=N      emit a monitoring heartbeat every N
 *                            fabric rounds (env FIRESIM_HEARTBEAT_EVERY;
 *                            0 = off)
 *   --status-interval=SEC    human-readable status line every SEC wall
 *                            seconds (env FIRESIM_STATUS_INTERVAL)
 *   --metrics-file=PATH      Prometheus text file, atomically refreshed
 *                            on every heartbeat (env FIRESIM_METRICS_FILE)
 *   --flight-recorder        enable the crash flight recorder
 *                            (env FIRESIM_FLIGHT_RECORDER=1)
 *   --flight-recorder-depth=N  flight recorder ring depth in events
 *                            (env FIRESIM_FLIGHT_RECORDER_DEPTH;
 *                            default 256)
 *   --decode-cache=on|off    host-side predecode + superblock fast
 *                            path for RocketCore harts
 *                            (env FIRESIM_DECODE_CACHE; default on)
 *   --decode-cache-entries=N decode-cache slots, rounded up to a power
 *                            of two (env FIRESIM_DECODE_CACHE_ENTRIES;
 *                            default 32768; must be at least 1)
 * Flags win over the environment. Malformed values are an error, not a
 * silent fallback. Unknown arguments are ignored so binaries stay
 * permissive. Results are bit-identical for every combination — only
 * wall-clock changes. A bench passing Sharding::SingleProcessOnly
 * exits 2 on --shards > 1, before any rendezvous.
 */
inline void
parseCommonFlags(int argc, char **argv,
                 Sharding sharding = Sharding::Supported)
{
    if (const char *env = std::getenv("FIRESIM_PARALLEL_HOSTS"))
        parallelHostsRef() = parseUnsignedKnob("FIRESIM_PARALLEL_HOSTS",
                                               env);
    if (const char *env = std::getenv("FIRESIM_SCHED_POLICY"))
        schedPolicyRef() = parseSchedKnob("FIRESIM_SCHED_POLICY", env);
    if (const char *env = std::getenv("FIRESIM_SWITCH_SLICE_PORTS"))
        switchSlicePortsRef() =
            parseUnsignedKnob("FIRESIM_SWITCH_SLICE_PORTS", env);
    if (const char *env = std::getenv("FIRESIM_SHARDS"))
        shardsRef() = parseUnsignedKnob("FIRESIM_SHARDS", env);
    if (const char *env = std::getenv("FIRESIM_SHARD_RANK"))
        shardRankRef() = parseUnsignedKnob("FIRESIM_SHARD_RANK", env);
    if (const char *env = std::getenv("FIRESIM_SHARD_CONNECT"))
        parseShardConnectKnob("FIRESIM_SHARD_CONNECT", env);
    if (const char *env = std::getenv("FIRESIM_SHARD_CONNECT_TIMEOUT"))
        shardConnectTimeoutMsRef() =
            parseUnsignedKnob("FIRESIM_SHARD_CONNECT_TIMEOUT", env);
    if (const char *env = std::getenv("FIRESIM_SHARD_TRANSPORT"))
        shardTransportRef() =
            parseTransportKnob("FIRESIM_SHARD_TRANSPORT", env);
    if (const char *env = std::getenv("FIRESIM_SHARD_SHM_RING"))
        shardShmRingRef() =
            parseUnsignedKnob("FIRESIM_SHARD_SHM_RING", env);
    if (const char *env = std::getenv("FIRESIM_SHARD_POLICY"))
        shardPolicyIdRef() =
            parseShardPolicyKnob("FIRESIM_SHARD_POLICY", env);
    if (const char *env = std::getenv("FIRESIM_SHARD_PROFILE_IN"))
        shardProfileInRef() = env;
    if (const char *env = std::getenv("FIRESIM_SHARD_PROFILE_OUT"))
        shardProfileOutRef() = env;
    if (const char *env = std::getenv("FIRESIM_STRAGGLER_ALPHA"))
        stragglerAlphaRef() =
            parseAlphaKnob("FIRESIM_STRAGGLER_ALPHA", env);
    if (const char *env = std::getenv("FIRESIM_CHECKPOINT"))
        checkpointPathRef() = env;
    if (const char *env = std::getenv("FIRESIM_CHECKPOINT_EVERY"))
        checkpointEveryRef() =
            parseUnsignedKnob("FIRESIM_CHECKPOINT_EVERY", env);
    if (const char *env = std::getenv("FIRESIM_RESTORE"))
        restorePathRef() = env;
    if (const char *env = std::getenv("FIRESIM_HEARTBEAT_EVERY"))
        heartbeatEveryRef() =
            parseUnsignedKnob("FIRESIM_HEARTBEAT_EVERY", env);
    if (const char *env = std::getenv("FIRESIM_STATUS_INTERVAL"))
        statusIntervalRef() =
            parseUnsignedKnob("FIRESIM_STATUS_INTERVAL", env);
    if (const char *env = std::getenv("FIRESIM_METRICS_FILE"))
        metricsFileRef() = env;
    if (const char *env = std::getenv("FIRESIM_FLIGHT_RECORDER"))
        flightRecorderRef() = env[0] == '1';
    if (const char *env = std::getenv("FIRESIM_FLIGHT_RECORDER_DEPTH"))
        flightRecorderDepthRef() =
            parseUnsignedKnob("FIRESIM_FLIGHT_RECORDER_DEPTH", env);
    if (const char *env = std::getenv("FIRESIM_DECODE_CACHE"))
        decodeCacheRef() = parseOnOffKnob("FIRESIM_DECODE_CACHE", env);
    if (const char *env = std::getenv("FIRESIM_DECODE_CACHE_ENTRIES"))
        decodeCacheEntriesRef() =
            parseUnsignedKnob("FIRESIM_DECODE_CACHE_ENTRIES", env);

    const std::string hosts_flag = "--parallel-hosts=";
    const std::string sched_flag = "--sched-policy=";
    const std::string slice_flag = "--switch-slice-ports=";
    const std::string shards_flag = "--shards=";
    const std::string rank_flag = "--shard-rank=";
    const std::string connect_flag = "--shard-connect=";
    const std::string ctimeout_flag = "--shard-connect-timeout=";
    const std::string transport_flag = "--shard-transport=";
    const std::string shm_ring_flag = "--shard-shm-ring=";
    const std::string spolicy_flag = "--shard-policy=";
    const std::string sprof_in_flag = "--shard-profile-in=";
    const std::string sprof_out_flag = "--shard-profile-out=";
    const std::string salpha_flag = "--straggler-alpha=";
    const std::string ckpt_flag = "--checkpoint=";
    const std::string ckpt_every_flag = "--checkpoint-every=";
    const std::string restore_flag = "--restore=";
    const std::string hb_flag = "--heartbeat-every=";
    const std::string status_flag = "--status-interval=";
    const std::string metrics_flag = "--metrics-file=";
    const std::string fr_flag = "--flight-recorder";
    const std::string fr_depth_flag = "--flight-recorder-depth=";
    const std::string dcache_flag = "--decode-cache=";
    const std::string dcache_entries_flag = "--decode-cache-entries=";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind(hosts_flag, 0) == 0)
            parallelHostsRef() = parseUnsignedKnob(
                "--parallel-hosts", arg.c_str() + hosts_flag.size());
        else if (arg.rfind(sched_flag, 0) == 0)
            schedPolicyRef() = parseSchedKnob(
                "--sched-policy", arg.c_str() + sched_flag.size());
        else if (arg.rfind(slice_flag, 0) == 0)
            switchSlicePortsRef() = parseUnsignedKnob(
                "--switch-slice-ports", arg.c_str() + slice_flag.size());
        else if (arg.rfind(shards_flag, 0) == 0)
            shardsRef() = parseUnsignedKnob(
                "--shards", arg.c_str() + shards_flag.size());
        else if (arg.rfind(rank_flag, 0) == 0)
            shardRankRef() = parseUnsignedKnob(
                "--shard-rank", arg.c_str() + rank_flag.size());
        else if (arg.rfind(connect_flag, 0) == 0)
            parseShardConnectKnob(
                "--shard-connect", arg.c_str() + connect_flag.size());
        else if (arg.rfind(ctimeout_flag, 0) == 0)
            shardConnectTimeoutMsRef() = parseUnsignedKnob(
                "--shard-connect-timeout",
                arg.c_str() + ctimeout_flag.size());
        else if (arg.rfind(transport_flag, 0) == 0)
            shardTransportRef() = parseTransportKnob(
                "--shard-transport",
                arg.c_str() + transport_flag.size());
        else if (arg.rfind(shm_ring_flag, 0) == 0)
            shardShmRingRef() = parseUnsignedKnob(
                "--shard-shm-ring", arg.c_str() + shm_ring_flag.size());
        else if (arg.rfind(spolicy_flag, 0) == 0)
            shardPolicyIdRef() = parseShardPolicyKnob(
                "--shard-policy", arg.c_str() + spolicy_flag.size());
        else if (arg.rfind(sprof_in_flag, 0) == 0)
            shardProfileInRef() = arg.substr(sprof_in_flag.size());
        else if (arg.rfind(sprof_out_flag, 0) == 0)
            shardProfileOutRef() = arg.substr(sprof_out_flag.size());
        else if (arg.rfind(salpha_flag, 0) == 0)
            stragglerAlphaRef() = parseAlphaKnob(
                "--straggler-alpha", arg.c_str() + salpha_flag.size());
        else if (arg.rfind(ckpt_flag, 0) == 0)
            checkpointPathRef() = arg.substr(ckpt_flag.size());
        else if (arg.rfind(ckpt_every_flag, 0) == 0)
            checkpointEveryRef() = parseUnsignedKnob(
                "--checkpoint-every",
                arg.c_str() + ckpt_every_flag.size());
        else if (arg.rfind(restore_flag, 0) == 0)
            restorePathRef() = arg.substr(restore_flag.size());
        else if (arg.rfind(hb_flag, 0) == 0)
            heartbeatEveryRef() = parseUnsignedKnob(
                "--heartbeat-every", arg.c_str() + hb_flag.size());
        else if (arg.rfind(status_flag, 0) == 0)
            statusIntervalRef() = parseUnsignedKnob(
                "--status-interval", arg.c_str() + status_flag.size());
        else if (arg.rfind(metrics_flag, 0) == 0)
            metricsFileRef() = arg.substr(metrics_flag.size());
        else if (arg.rfind(fr_depth_flag, 0) == 0)
            flightRecorderDepthRef() = parseUnsignedKnob(
                "--flight-recorder-depth",
                arg.c_str() + fr_depth_flag.size());
        else if (arg.rfind(dcache_entries_flag, 0) == 0)
            decodeCacheEntriesRef() = parseUnsignedKnob(
                "--decode-cache-entries",
                arg.c_str() + dcache_entries_flag.size());
        else if (arg.rfind(dcache_flag, 0) == 0)
            decodeCacheRef() = parseOnOffKnob(
                "--decode-cache", arg.c_str() + dcache_flag.size());
        else if (arg == fr_flag)
            flightRecorderRef() = true;
    }
    if (parallelHostsRef() == 0)
        parallelHostsRef() = 1;
    if (shardsRef() == 0) {
        std::fprintf(stderr, "error: --shards must be at least 1\n");
        std::exit(2);
    }
    if (shardsRef() > 1 && sharding == Sharding::SingleProcessOnly) {
        const char *bench = argc > 0 ? argv[0] : "this bench";
        if (const char *slash = std::strrchr(bench, '/'))
            bench = slash + 1;
        std::fprintf(stderr,
                     "error: %s does not support --shards=%u: it drives "
                     "every node by global index, so it runs as one "
                     "process only\n",
                     bench, shards());
        std::exit(2);
    }
    if (shardRankRef() >= shardsRef()) {
        std::fprintf(stderr,
                     "error: --shard-rank=%u out of range for "
                     "--shards=%u (need 0 <= rank < shards)\n",
                     shardRank(), shards());
        std::exit(2);
    }
    if (shardsRef() > 1 && shardBasePortRef() == 0) {
        std::fprintf(stderr,
                     "error: --shards=%u needs --shard-connect="
                     "HOST:PORT for the rendezvous\n",
                     shards());
        std::exit(2);
    }
    if (shardShmRingRef() == 0) {
        std::fprintf(stderr,
                     "error: --shard-shm-ring must be at least 1\n");
        std::exit(2);
    }
    if (checkpointEveryRef() != 0 && checkpointPathRef().empty()) {
        std::fprintf(stderr, "error: --checkpoint-every=%u needs "
                             "--checkpoint=PATH\n",
                     checkpointEveryRef());
        std::exit(2);
    }
    if (flightRecorderDepthRef() == 0) {
        std::fprintf(stderr,
                     "error: --flight-recorder-depth must be at "
                     "least 1\n");
        std::exit(2);
    }
    if (decodeCacheEntriesRef() == 0) {
        std::fprintf(stderr,
                     "error: --decode-cache-entries must be at "
                     "least 1\n");
        std::exit(2);
    }
    if (parallelHostsRef() > 1)
        std::printf("[bench] parallel hosts: %u fabric worker threads "
                    "(sched policy: %s, switch slice ports: %u)\n",
                    parallelHostsRef(),
                    schedPolicyName(schedPolicy()), switchSlicePorts());
    if (shards() > 1)
        std::printf("[bench] distributed: shard %u of %u, rendezvous "
                    "%s:%u, transport %s\n",
                    shardRank(), shards(),
                    shardConnectHostRef().c_str(), shardBasePortRef(),
                    transportKindName(shardTransportRef()));
}

/**
 * Apply every parsed knob to a ClusterConfig (templated so this header
 * does not pull in the manager). Every bench that builds a Cluster
 * funnels through here, so new knobs reach all of them at once.
 */
template <typename ClusterConfigT>
inline void
applyClusterFlags(ClusterConfigT &cc)
{
    cc.parallelHosts = parallelHosts();
    cc.schedPolicy = schedPolicy();
    cc.switchSlicePorts = switchSlicePorts();
    cc.shard.shards = shards();
    cc.shard.rank = shardRank();
    cc.shard.connectHost = shardConnectHostRef();
    cc.shard.basePort = static_cast<uint16_t>(shardBasePortRef());
    cc.shard.connectTimeoutMs =
        static_cast<int>(shardConnectTimeoutMsRef());
    cc.shard.transport = shardTransportRef();
    cc.shard.shmRingBytes = shardShmRingRef();
    // decltype keeps this header manager-free: the id is the
    // ShardPolicy enum's underlying value (0 = block, 1 = cost).
    cc.shard.policy =
        static_cast<decltype(cc.shard.policy)>(shardPolicyIdRef());
    cc.shard.profileIn = shardProfileInRef();
    cc.shard.profileOut = shardProfileOutRef();
    cc.monitor.ewmaAlpha = stragglerAlphaRef();
    cc.monitor.heartbeatEvery = heartbeatEveryRef();
    cc.monitor.statusIntervalSec = statusIntervalRef();
    cc.monitor.metricsPath = metricsFileRef();
    cc.flightRecorder.enabled = flightRecorderRef();
    cc.flightRecorder.depth = flightRecorderDepthRef();
    cc.flightRecorder.installSignalHandler = flightRecorderRef();
    cc.hart.decodeCache = decodeCache();
    cc.hart.decodeCacheEntries = decodeCacheEntries();
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
    uint64_t ordinal = runOrdinalRef()++;
    resumeCreditRef() = 0; // credit never crosses clusters
    if (restorePathRef().empty())
        return;
    std::string path = ordinalSnapPath(restorePathRef(), ordinal);
    if (!snapshotExists(clu, path))
        return;
    std::string e = resumeFromSnapshot(clu, path);
    if (!e.empty()) {
        std::fprintf(stderr, "error: --restore=%s: %s\n",
                     path.c_str(), e.c_str());
        std::exit(1);
    }
    resumeCreditRef() = clu.now();
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
    uint64_t &credit = resumeCreditRef();
    uint64_t skip = credit < cycles ? credit : cycles;
    credit -= skip;
    cycles -= skip;
    if (cycles == 0)
        return true;
    if (checkpointPathRef().empty()) {
        clu.run(cycles);
        return true;
    }
    uint64_t ordinal = runOrdinalRef() ? runOrdinalRef() - 1 : 0;
    return runWithCheckpoints(
        clu, cycles, ordinalSnapPath(checkpointPathRef(), ordinal),
        checkpointEveryRef());
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
