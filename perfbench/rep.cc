/**
 * @file
 * One timed repetition of a repository-benchmark workload.
 *
 *   perfbench_rep --workload NAME [--seed N] [--trace 0|1]
 *                 [--shape AGGS,TORS,SERVERS] [--target-us US]
 *                 [--spans PATH]
 *
 * Builds the cluster, launches the workload's apps, runs the fixed
 * target window and prints one JSON line: host timings (set-up, run,
 * peak RSS), the simulated-results digest with the fields it covers,
 * and the per-layer counters. With --trace 1 a LayerTracer is attached
 * to every rank's fabric and its host-time breakdown joins the
 * counters. perfbench/run.py repeats this binary, takes medians and
 * checks the digests; see perfbench/README.md.
 *
 * The 2-shard workload forks rank 1 from this process. The ranks talk
 * over an AF_UNIX socketpair upgraded to shared-memory rings; rank 1
 * sends its numbers back over a pipe and rank 0 merges them. A rank
 * that dies, times out or loses its peer makes the repetition fail
 * ("ok": false or a non-zero exit), never hang.
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/boot.hh"
#include "apps/memcached.hh"
#include "apps/mutilate.hh"
#include "layer_tracer.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/remote/shm_ring.hh"
#include "net/remote/socket.hh"

using namespace firesim;
using perfbench::LayerTracer;
using perfbench::MetricMap;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    uint32_t aggs = 4;
    uint32_t torsPerAgg = 8;
    uint32_t serversPerTor = 32;
    double targetUs = 0.0; //!< 0 = the workload's default window
    std::string spansPath;
};

struct Workload
{
    const char *name;
    bool memcached; //!< else boot-and-idle
    unsigned threads;
    uint32_t shards;
    double defaultTargetUs;
};

// Default windows: memcached runs past its 1 ms open-loop warm-up; boot
// runs well past the last boot (all 1024 boots end by 2.54 ms).
const Workload kWorkloads[] = {
    {"dc-memcached", true, 1, 1, 5000.0},
    {"dc-memcached-4t", true, 4, 1, 5000.0},
    {"boot-idle", false, 1, 1, 10000.0},
    {"boot-idle-2shard", false, 1, 2, 10000.0},
};

/** What one rank measured: host timings plus summable counters. */
struct RankResult
{
    double setupS = 0.0;
    double runS = 0.0;
    double rssMb = 0.0;
    bool ok = true;
    MetricMap counters;
    std::vector<double> latencies; //!< mutilate samples, client order
};

uint64_t
fnv1a(const void *data, size_t len, uint64_t h = 1469598103934665603ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * Table III cross-datacenter pairing: within each ToR the first half
 * of the servers run memcached, and each is loaded by the generator in
 * the same slot of the second half of the next aggregation block.
 */
std::vector<std::pair<uint32_t, uint32_t>>
crossDatacenterPairs(const Options &o)
{
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    uint32_t half = o.serversPerTor / 2;
    auto index = [&](uint32_t agg, uint32_t tor, uint32_t s) {
        return (agg * o.torsPerAgg + tor) * o.serversPerTor + s;
    };
    for (uint32_t agg = 0; agg < o.aggs; ++agg)
        for (uint32_t tor = 0; tor < o.torsPerAgg; ++tor)
            for (uint32_t s = 0; s < half; ++s)
                pairs.emplace_back(index(agg, tor, s),
                                   index((agg + 1) % o.aggs, tor, half + s));
    return pairs;
}

/** Sum the public per-layer counters of this rank's components. */
void
collectCounters(Cluster &cluster, MetricMap &m)
{
    double events = 0, sent = 0, recv = 0, dropped = 0, sectors = 0;
    for (size_t i = 0; i < cluster.nodeCount(); ++i) {
        ServerBlade &blade = cluster.node(i).blade();
        events += blade.eventQueue().scheduledTotal();
        sent += blade.nic().stats().framesSent.value();
        recv += blade.nic().stats().framesReceived.value();
        dropped += blade.nic().stats().framesDroppedRx.value();
        sectors += blade.blockDevice().stats().sectorsMoved.value();
    }
    m["sim.events"] = events;
    m["nic.frames_sent"] = sent;
    m["nic.frames_received"] = recv;
    m["nic.frames_dropped_rx"] = dropped;
    m["blockdev.sectors_moved"] = sectors;

    double out = 0, drop = 0, bytes = 0;
    for (size_t i = 0; i < cluster.switchCount(); ++i) {
        const SwitchStats &s = cluster.switchAt(i).stats();
        out += s.packetsOut.value();
        drop += s.packetsDropped.value();
        bytes += s.bytesOut.value();
    }
    m["switchmodel.packets_out"] = out;
    m["switchmodel.packets_dropped"] = drop;
    m["switchmodel.bytes_out"] = bytes;

    double stall = 0, btx = 0, batx = 0, barriered = 0;
    if (ShardTransport *t = cluster.shardTransport()) {
        for (size_t p = 0; p < t->peerRanks().size(); ++p) {
            const ShardTransport::PeerStats &ps = t->peerStatsAt(p);
            stall += ps.stallNs;
            btx += ps.bytesTx;
            batx += ps.batchesTx;
            barriered += ps.roundsBarriered;
        }
    }
    m["net.remote.stall_ns"] = stall;
    m["net.remote.bytes_tx"] = btx;
    m["net.remote.batches_tx"] = batx;
    m["net.remote.rounds_barriered"] = barriered;

    TokenFabric &f = cluster.fabric();
    m["net.fabric.rounds"] = static_cast<double>(f.round());
    m["net.fabric.batches"] = static_cast<double>(f.batchesMoved());
    m["net.fabric.batch_allocs"] = static_cast<double>(f.batchAllocations());
}

/**
 * Build, launch and run one rank. @p links is empty for a
 * single-process run. Host time counts from @p t0, the start of the
 * workload (before the fork on the sharded workload).
 */
RankResult
runRank(const Options &o, const Workload &w, uint32_t rank,
        std::vector<std::pair<uint32_t, std::unique_ptr<PeerLink>>> links,
        Clock::time_point t0)
{
    RankResult res;
    TargetClock clk;
    double target_us = o.targetUs > 0 ? o.targetUs : w.defaultTargetUs;
    Cycles target = clk.cyclesFromUs(target_us);

    ClusterConfig cc;
    cc.seed = o.seed;
    cc.parallelHosts = w.threads;
    cc.shard.shards = w.shards;
    cc.shard.rank = rank;

    // Declared before the cluster so it outlives the fabric's pointer.
    std::unique_ptr<LayerTracer> tracer;
    if (o.trace)
        tracer = std::make_unique<LayerTracer>(target / cc.linkLatency);

    auto b0 = Clock::now();
    SwitchSpec topo =
        topologies::threeLevel(o.aggs, o.torsPerAgg, o.serversPerTor);
    std::unique_ptr<Cluster> cluster =
        links.empty()
            ? std::make_unique<Cluster>(std::move(topo), cc)
            : std::make_unique<Cluster>(std::move(topo), cc,
                                        std::move(links));
    res.counters["manager.build_s"] = secondsSince(b0);

    auto l0 = Clock::now();
    std::vector<std::unique_ptr<MemcachedServer>> servers;
    std::vector<std::unique_ptr<MutilateClient>> clients;
    std::vector<BootResult> boots;
    if (w.memcached) {
        for (auto [server_idx, client_idx] : crossDatacenterPairs(o)) {
            MemcachedConfig mc;
            servers.push_back(std::make_unique<MemcachedServer>(
                cluster->node(server_idx), mc));
            servers.back()->start();

            MutilateConfig lc;
            lc.serverIp = Cluster::ipFor(server_idx);
            lc.serverThreads = mc.threads;
            lc.connections = mc.threads;
            lc.qps = 10000.0;
            lc.seed = (o.seed << 20) + client_idx;
            lc.measureFrom = target / 5;
            lc.measureUntil = target - target / 10;
            clients.push_back(std::make_unique<MutilateClient>(
                cluster->node(client_idx), lc));
            clients.back()->start();
        }
    } else {
        BootConfig bc;
        bc.kernelSectors = 2048;
        bc.fsMetadataSectors = 256;
        boots.resize(cluster->nodeCount());
        for (size_t n = 0; n < cluster->nodeCount(); ++n)
            launchBootWorkload(cluster->node(n), bc, &boots[n]);
    }
    if (tracer)
        cluster->fabric().addObserver(tracer.get());
    res.counters["apps.launch_s"] = secondsSince(l0);

    res.setupS = secondsSince(t0);
    auto r0 = Clock::now();
    cluster->run(target);
    res.runS = secondsSince(r0);

    collectCounters(*cluster, res.counters);
    if (tracer) {
        tracer->collect(res.counters);
        if (!o.spansPath.empty() &&
            !tracer->writeSpans(o.spansPath + ".rank" + std::to_string(rank),
                                static_cast<int>(rank)))
            warn("could not write spans to %s", o.spansPath.c_str());
    }

    double powered = 0, boot_cycles = 0;
    for (const BootResult &b : boots) {
        powered += b.poweredDown ? 1 : 0;
        boot_cycles += static_cast<double>(b.bootCycles);
    }
    res.counters["res.powered_down"] = powered;
    res.counters["res.boot_cycles"] = boot_cycles;

    double issued = 0, completed = 0;
    for (auto &c : clients) {
        const MutilateStats &st = c->stats();
        issued += st.issued;
        completed += st.completed;
        for (double s : st.latencyCycles.samples())
            res.latencies.push_back(s);
        res.counters["res.qps"] += st.achievedQps(clk.frequencyGhz());
    }
    res.counters["apps.mutilate.issued"] = issued;
    res.counters["apps.mutilate.completed"] = completed;
    res.counters["target_cycles"] = static_cast<double>(target);

    if (ShardTransport *t = cluster->shardTransport())
        res.ok = !t->anyPeerLost();
    // Apps first (the Table III bench's teardown order), then the
    // cluster, which says Bye to the peer before anyone reports.
    clients.clear();
    servers.clear();
    cluster.reset();
    res.rssMb = peakRssMb();
    return res;
}

// ---- rank 1 -> rank 0 result pipe ---------------------------------------

void
writeAll(int fd, const std::string &s)
{
    size_t off = 0;
    while (off < s.size()) {
        ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        off += static_cast<size_t>(n);
    }
}

std::string
encodeRank(const RankResult &r)
{
    std::string s;
    char line[256];
    auto put = [&](const std::string &k, double v) {
        std::snprintf(line, sizeof(line), "%s %.17g\n", k.c_str(), v);
        s += line;
    };
    put("setup_s", r.setupS);
    put("run_s", r.runS);
    put("rss_mb", r.rssMb);
    put("ok", r.ok ? 1 : 0);
    for (const auto &[k, v] : r.counters)
        put("c:" + k, v);
    s += "end\n";
    return s;
}

/** Read rank 1's report; false if it is incomplete by @p deadline. */
bool
readRank(int fd, Clock::time_point deadline, RankResult &r)
{
    std::string buf;
    char chunk[4096];
    while (true) {
        int left = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count());
        if (left <= 0)
            return false;
        struct pollfd p = {fd, POLLIN, 0};
        int rc = ::poll(&p, 1, left);
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            return false;
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<size_t>(n));
    }
    if (buf.size() < 4 || buf.compare(buf.size() - 4, 4, "end\n") != 0)
        return false;
    size_t pos = 0;
    while (pos < buf.size()) {
        size_t nl = buf.find('\n', pos);
        std::string line = buf.substr(pos, nl - pos);
        pos = nl + 1;
        size_t sp = line.find(' ');
        if (sp == std::string::npos)
            continue;
        std::string k = line.substr(0, sp);
        double v = std::strtod(line.c_str() + sp + 1, nullptr);
        if (k == "setup_s")
            r.setupS = v;
        else if (k == "run_s")
            r.runS = v;
        else if (k == "rss_mb")
            r.rssMb = v;
        else if (k == "ok")
            r.ok = v != 0;
        else if (k.rfind("c:", 0) == 0)
            r.counters[k.substr(2)] = v;
    }
    return true;
}

/** Wait for @p child until @p deadline, then kill it. True iff it
 *  exited on its own with status 0. */
bool
reapChild(pid_t child, Clock::time_point deadline)
{
    int status = 0;
    while (true) {
        pid_t rc = ::waitpid(child, &status, WNOHANG);
        if (rc == child)
            return WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (rc < 0 && errno != EINTR)
            return false;
        if (Clock::now() >= deadline) {
            ::kill(child, SIGKILL);
            ::waitpid(child, &status, 0);
            return false;
        }
        ::usleep(2000);
    }
}

// Counters that every rank reports identically (or that are per-rank
// wall-clock phases) merge by max; everything else is a per-rank share
// and merges by sum.
bool
mergesByMax(const std::string &k)
{
    return k == "net.fabric.rounds" || k == "target_cycles" ||
           k == "manager.build_s" || k == "apps.launch_s";
}

RankResult
runSharded(const Options &o, const Workload &w, Clock::time_point t0)
{
    int pipefd[2];
    if (::pipe(pipefd) != 0)
        fatal("pipe: %s", std::strerror(errno));
    auto [fd0, fd1] = localSocketPair();
    pid_t parent = ::getpid();
    std::fflush(nullptr);
    pid_t child = ::fork();
    if (child < 0)
        fatal("fork: %s", std::strerror(errno));
    if (child == 0) {
        // Rank 1. Dies with rank 0 so a killed benchmark leaves no
        // orphan spinning on the shared-memory barrier.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(4);
        ::close(pipefd[0]);
        { SocketFd drop = std::move(fd0); }
        std::vector<std::pair<uint32_t, std::unique_ptr<PeerLink>>> links;
        links.emplace_back(0, makeShmLink(std::move(fd1), false,
                                          ShardSpec().shmRingBytes,
                                          "perfbench"));
        RankResult r = runRank(o, w, 1, std::move(links), t0);
        writeAll(pipefd[1], encodeRank(r));
        ::close(pipefd[1]);
        std::fflush(nullptr);
        ::_exit(r.ok ? 0 : 3);
    }
    ::close(pipefd[1]);
    { SocketFd drop = std::move(fd1); }
    std::vector<std::pair<uint32_t, std::unique_ptr<PeerLink>>> links;
    links.emplace_back(1, makeShmLink(std::move(fd0), true,
                                      ShardSpec().shmRingBytes,
                                      "perfbench"));
    RankResult r0 = runRank(o, w, 0, std::move(links), t0);

    // Rank 1 finishes its run in lockstep with rank 0; allow it the
    // peer-loss timeout plus its teardown before declaring it lost.
    auto deadline = Clock::now() + std::chrono::seconds(30);
    RankResult r1;
    bool got = readRank(pipefd[0], deadline, r1);
    ::close(pipefd[0]);
    bool exited_ok = reapChild(child, deadline);
    if (!got || !exited_ok) {
        warn("rank 1 %s", !got ? "sent no result" : "exited abnormally");
        r0.ok = false;
        return r0;
    }

    r0.ok = r0.ok && r1.ok;
    r0.setupS = std::max(r0.setupS, r1.setupS);
    r0.runS = std::max(r0.runS, r1.runS);
    r0.rssMb += r1.rssMb;
    for (const auto &[k, v] : r1.counters) {
        double &dst = r0.counters[k];
        dst = mergesByMax(k) ? std::max(dst, v) : dst + v;
    }
    return r0;
}

// ---- output -------------------------------------------------------------

struct Digest
{
    std::string summary; //!< the canonical fields the hash covers
    uint64_t hash = 0;
    double p50Us = 0, p95Us = 0;
};

Digest
digestOf(const RankResult &r)
{
    Digest d;
    Histogram h;
    for (double s : r.latencies)
        h.sample(s);
    TargetClock clk;
    d.p50Us = clk.usFromCycles(static_cast<Cycles>(h.percentile(50)));
    d.p95Us = clk.usFromCycles(static_cast<Cycles>(h.percentile(95)));
    uint64_t hist = fnv1a(r.latencies.data(),
                          r.latencies.size() * sizeof(double));
    auto c = [&](const char *k) {
        auto it = r.counters.find(k);
        return it == r.counters.end() ? 0ULL
                                      : static_cast<unsigned long long>(
                                            it->second);
    };
    double qps = r.counters.count("res.qps") ? r.counters.at("res.qps") : 0;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "hist=%016" PRIx64 " samples=%zu p50_us=%.4f p95_us=%.4f qps=%.3f "
        "issued=%llu completed=%llu powered_down=%llu boot_cycles=%llu "
        "events=%llu sw_packets_out=%llu sw_packets_dropped=%llu "
        "sw_bytes_out=%llu nic_sent=%llu nic_received=%llu "
        "nic_dropped_rx=%llu sectors=%llu rounds=%llu",
        hist, r.latencies.size(), d.p50Us, d.p95Us, qps,
        c("apps.mutilate.issued"), c("apps.mutilate.completed"),
        c("res.powered_down"), c("res.boot_cycles"), c("sim.events"),
        c("switchmodel.packets_out"), c("switchmodel.packets_dropped"),
        c("switchmodel.bytes_out"), c("nic.frames_sent"),
        c("nic.frames_received"), c("nic.frames_dropped_rx"),
        c("blockdev.sectors_moved"), c("net.fabric.rounds"));
    d.summary = buf;
    d.hash = fnv1a(d.summary.data(), d.summary.size());
    return d;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_rep: %s\nusage: perfbench_rep --workload NAME "
                 "[--seed N] [--trace 0|1] [--shape A,T,S] "
                 "[--target-us US] [--spans PATH]\n",
                 msg);
    std::exit(2);
}

/** Parse a whole-string number; usage() on trailing junk. */
double
number(const std::string &flag, const char *v)
{
    char *end = nullptr;
    double x = std::strtod(v, &end);
    if (end == v || *end != '\0' || x < 0)
        usage(("bad value for " + flag).c_str());
    return x;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--spans") {
            o.spansPath = v;
        } else if (a == "--seed") {
            o.seed = static_cast<uint64_t>(number(a, v));
        } else if (a == "--trace") {
            o.trace = number(a, v) != 0;
        } else if (a == "--target-us") {
            o.targetUs = number(a, v);
        } else if (a == "--shape") {
            if (std::sscanf(v, "%u,%u,%u", &o.aggs, &o.torsPerAgg,
                            &o.serversPerTor) != 3 ||
                o.aggs < 2 || o.torsPerAgg < 1 || o.serversPerTor < 2 ||
                o.serversPerTor % 2 != 0)
                usage("bad --shape (want AGGS>=2,TORS>=1,SERVERS even)");
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    const Workload *w = nullptr;
    for (const Workload &k : kWorkloads)
        if (o.workload == k.name)
            w = &k;
    if (!w)
        usage(("unknown workload '" + o.workload + "'").c_str());

    auto t0 = Clock::now();
    RankResult r = w->shards > 1
                       ? runSharded(o, *w, t0)
                       : runRank(o, *w, 0, {}, t0);
    Digest d = digestOf(r);
    r.counters["res.p50_us"] = d.p50Us;
    r.counters["res.p95_us"] = d.p95Us;

    std::printf("{\"ok\":%s,\"digest\":\"%016" PRIx64 "\",\"summary\":\"%s\","
                "\"setup_s\":%.9g,\"run_s\":%.9g,\"peak_rss_mb\":%.6g,"
                "\"counters\":{",
                r.ok ? "true" : "false", d.hash, d.summary.c_str(), r.setupS,
                r.runS, r.rssMb);
    bool first = true;
    for (const auto &[k, v] : r.counters) {
        std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
        first = false;
    }
    std::printf("}}\n");
    return r.ok ? 0 : 3;
}
