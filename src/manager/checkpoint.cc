/**
 * @file
 * Cluster snapshot assembly plus the crash-recovery run loop and
 * warm-boot forking declared in checkpoint.hh.
 */

#include "manager/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <span>
#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"
#include "manager/cluster.hh"
#include "snapshot/snapshot.hh"

namespace firesim
{

std::string
stripHostTimingStats(std::string json)
{
    // Erase the `"name": value` pair whose opening quote is at @p at.
    auto eraseEntry = [&json](size_t at) {
        size_t next = json.find(", \"", at);
        if (next != std::string::npos) {
            json.erase(at, next + 2 - at);
        } else {
            // Last entry: drop the separator in front of it instead.
            size_t stop = json.find('}', at);
            if (stop == std::string::npos)
                stop = json.size();
            size_t begin = json.rfind(", ", at);
            begin = begin == std::string::npos ? at : begin;
            json.erase(begin, stop - begin);
        }
    };

    // Matches both the plain single-process name and the merged
    // cross-shard dump's `rankN.`-prefixed one (telemetry/aggregate).
    const std::string key = "cluster.shard.";
    size_t from = 0;
    size_t hit;
    while ((hit = json.find(key, from)) != std::string::npos) {
        // Only strip the key when it opens a JSON name: the previous
        // quote directly precedes it, or does so through a `rankN.`
        // merged-dump prefix.
        size_t quote = json.rfind('"', hit);
        bool opens = quote != std::string::npos && quote < hit;
        if (opens) {
            size_t i = quote + 1;
            if (i + 4 <= hit && json.compare(i, 4, "rank") == 0) {
                size_t d = i + 4;
                while (d < hit && json[d] >= '0' && json[d] <= '9')
                    ++d;
                if (d > i + 4 && d < hit && json[d] == '.')
                    i = d + 1;
            }
            opens = i == hit;
        }
        if (!opens) {
            from = hit + key.size();
            continue;
        }
        eraseEntry(quote);
        from = 0;
    }

    // A `.host.` segment anywhere in a stat name marks host-side
    // acceleration telemetry (decode-cache hit/miss/invalidation
    // counts): correct runs legitimately differ in these — a restored
    // run re-misses, a cache-off run records nothing — so parity
    // comparisons drop them alongside the fabric timing stats.
    const std::string host_key = ".host.";
    from = 0;
    while ((hit = json.find(host_key, from)) != std::string::npos) {
        size_t quote = json.rfind('"', hit);
        size_t close = json.find('"', hit);
        bool in_name = quote != std::string::npos &&
                       close != std::string::npos &&
                       close + 1 < json.size() && json[close + 1] == ':';
        if (!in_name) {
            from = hit + host_key.size();
            continue;
        }
        eraseEntry(quote);
        from = 0;
    }
    return json;
}

// ---- Cluster snapshot assembly --------------------------------------

uint64_t
Cluster::topoHash() const
{
    return plan_.topoHash;
}

std::string
Cluster::saveSnapshot(const std::string &path)
{
    if (path.empty())
        return "saveSnapshot: empty path";
    if (fabric_.now() % fabric_.quantum() != 0)
        return csprintf("saveSnapshot at cycle %llu: not a round "
                        "barrier (quantum %llu)",
                        (unsigned long long)fabric_.now(),
                        (unsigned long long)fabric_.quantum());

    SnapshotHeader hdr;
    hdr.topoHash = topoHash();
    hdr.shards = cfg.shard.shards;
    hdr.rank = cfg.shard.rank;
    hdr.round = fabric_.round();
    hdr.cycle = fabric_.now();
    SnapshotWriter w(hdr);

    auto add = [&w](const std::string &name, const auto &component) {
        Serializer s;
        component.snapshotSave(s);
        w.addSection(name, s.takeBytes());
    };

    // The owner map this snapshot was taken under. A restore under the
    // same plan also applies and verifies the rank-local sections.
    {
        Serializer s;
        s.putU(cfg.shard.shards);
        s.putU(plan_.planHash);
        s.putU(plan_.serverOwner.size());
        for (uint32_t o : plan_.serverOwner)
            s.putU(o);
        w.addSection("plan", s.takeBytes());
    }

    // Fabric round state is plan-independent; the per-channel token
    // rings are keyed by global directed-link id so another plan can
    // re-home them. Each directed link's channel lives on exactly one
    // rank (the consumer side), so across a distributed snapshot every
    // "chan<N>" section appears exactly once.
    {
        Serializer s;
        fabric_.snapshotSave(s);
        w.addSection("fabric", s.takeBytes());
    }
    for (size_t c = 0; c < fabric_.channelCount(); ++c) {
        Serializer s;
        fabric_.channelAt(c).snapshotSave(s);
        w.addSection(csprintf("chan%u", channelGlobalLink[c]),
                     s.takeBytes());
    }

    for (size_t i = 0; i < switches.size(); ++i)
        add(csprintf("switch%u", switchGlobal[i]), *switches[i]);
    for (size_t i = 0; i < nodes.size(); ++i) {
        add(csprintf("blade%u", nodeGlobal[i]), nodes[i]->blade());
        add(csprintf("os%u", nodeGlobal[i]), nodes[i]->os());
        add(csprintf("net%u", nodeGlobal[i]), nodes[i]->net());
    }
    if (injector_)
        add("fault", *injector_);
    if (monitor_)
        add("health", *monitor_);
    if (telemetry_) {
        if (telemetry_->sampler())
            add("autocounter", *telemetry_->sampler());
        // The full registry dump rides along purely for verification:
        // a restored run must read back the exact same values. The
        // cluster.shard.* transport subtree is host-timing-dependent
        // (recv() chunk boundaries), so it is filtered out.
        w.addSection("stats",
                     stripHostTimingStats(
                         telemetry_->registry().dumpJson(fabric_.now())));
    }
    if (transport_) {
        // The negotiated per-peer transport mix, recorded so a restore
        // can report what the original run used. Advisory only: results
        // are byte-identical across fabrics (the parity matrix in
        // tests/dist pins this), so restoring over a different mix is
        // legal and loadSnapshot merely warns.
        Serializer s;
        s.putU(transport_->peerRanks().size());
        for (size_t i = 0; i < transport_->peerRanks().size(); ++i) {
            s.putU(transport_->peerRanks()[i]);
            s.putU(static_cast<uint64_t>(
                transport_->peerLinkAt(i)->kind()));
        }
        w.addSection("transport", s.takeBytes());
    }

    return w.writeFile(
        snapshotRankPath(path, cfg.shard.shards, cfg.shard.rank));
}

namespace
{

/**
 * Rank 0's file of the snapshot at @p path: a @p shards-way run's own
 * spelling first (bare @p path for one shard, `<path>.rank0`
 * otherwise), then the other geometry's. Empty when neither exists.
 */
std::string
findRankZeroFile(const std::string &path, uint64_t shards)
{
    std::string own = snapshotRankPath(path, shards, 0);
    std::string other = shards > 1 ? path : path + ".rank0";
    for (const std::string &file : {own, other})
        if (::access(file.c_str(), F_OK) == 0)
            return file;
    return {};
}

/**
 * Open rank 0's file of the snapshot at @p path (findRankZeroFile)
 * into @p r and name it in @p file. Returns a diagnostic, empty on
 * success.
 */
std::string
openRankZero(const std::string &path, uint64_t shards, SnapshotReader &r,
             std::string &file)
{
    file = findRankZeroFile(path, shards);
    if (file.empty())
        return csprintf("%s: no snapshot found for any geometry "
                        "(neither %s nor %s.rank0 exists)",
                        path.c_str(), path.c_str(), path.c_str());
    return r.open(file);
}

/**
 * Open every rank file of the snapshot at @p path into @p files, in
 * rank order, and check each header against rank 0's: same topology
 * hash as this cluster (@p topo_hash), rank k of the saved shard
 * count, same cycle and round. The list grows only as each file
 * opens, so a header claiming absurdly many shards fails on the first
 * missing file instead of sizing anything by the claim.
 */
std::string
openRankFiles(const std::string &path, uint64_t shards,
              uint64_t topo_hash, std::vector<SnapshotReader> &files)
{
    SnapshotReader probe;
    std::string first;
    std::string e = openRankZero(path, shards, probe, first);
    if (!e.empty())
        return e;
    uint64_t saved_shards = probe.header().shards;
    if (saved_shards == 0)
        return csprintf("%s: snapshot header claims 0 shards",
                        first.c_str());

    files.clear();
    for (uint64_t k = 0; k < saved_shards; ++k) {
        std::string file = snapshotRankPath(path, saved_shards, k);
        if (k == 0 && file == first) {
            files.push_back(std::move(probe));
        } else {
            files.emplace_back();
            e = files.back().open(file);
            if (!e.empty())
                return csprintf("restore needs all %llu rank files: %s",
                                (unsigned long long)saved_shards,
                                e.c_str());
        }
        const SnapshotHeader &h = files.back().header();
        if (h.topoHash != topo_hash)
            return csprintf("%s: topology/timing hash %016llx does "
                            "not match this cluster (%016llx) — a "
                            "shard plan only changes the owner map, "
                            "never the topology", file.c_str(),
                            (unsigned long long)h.topoHash,
                            (unsigned long long)topo_hash);
        if (h.shards != saved_shards || h.rank != k)
            return csprintf("%s: header says rank %llu of %llu, "
                            "expected rank %llu of %llu", file.c_str(),
                            (unsigned long long)h.rank,
                            (unsigned long long)h.shards,
                            (unsigned long long)k,
                            (unsigned long long)saved_shards);
        if (h.cycle != files[0].header().cycle ||
            h.round != files[0].header().round)
            return csprintf("%s: barrier mismatch (cycle %llu round "
                            "%llu) — the per-rank files are not from "
                            "the same snapshot", file.c_str(),
                            (unsigned long long)h.cycle,
                            (unsigned long long)h.round);
    }
    return {};
}

} // namespace

std::string
Cluster::loadSnapshot(const std::string &path)
{
    std::vector<SnapshotReader> files;
    std::string e =
        openRankFiles(path, cfg.shard.shards, topoHash(), files);
    if (!e.empty())
        return e;
    const SnapshotHeader &h = files[0].header();
    if (h.cycle != fabric_.now())
        return csprintf("%s: snapshot at cycle %llu but cluster is at "
                        "%llu — replay the run to the snapshot cycle "
                        "before restoring", path.c_str(),
                        (unsigned long long)h.cycle,
                        (unsigned long long)fabric_.now());

    SnapshotErrors err;
    // Restore @p component from whichever of @p from holds @p name.
    auto restore = [&err](std::span<const SnapshotReader> from,
                          const std::string &name, auto &component) {
        for (const SnapshotReader &rd : from) {
            if (!rd.hasSection(name))
                continue;
            Deserializer d(rd.section(name, err));
            component.snapshotRestore(d, err);
            if (d.ok() && err.ok() && !d.atEnd())
                err.add(csprintf("%s: %zu trailing bytes after "
                                 "restore", name.c_str(),
                                 d.remaining()));
            return;
        }
        err.add(csprintf("section '%s' missing from every rank file",
                         name.c_str()));
    };

    // Every section below is keyed by a global name and lives in
    // exactly one rank file, so any plan can pick up its own share.
    // The fabric round state is identical across ranks (same
    // barrier); rank 0's copy serves them all.
    std::span<const SnapshotReader> all(files);
    restore(all.first(1), "fabric", fabric_);
    for (size_t c = 0; c < fabric_.channelCount(); ++c)
        restore(all, csprintf("chan%u", channelGlobalLink[c]),
                fabric_.channelAt(c));
    for (size_t i = 0; i < switches.size(); ++i)
        restore(all, csprintf("switch%u", switchGlobal[i]),
                *switches[i]);
    for (size_t i = 0; i < nodes.size(); ++i) {
        restore(all, csprintf("blade%u", nodeGlobal[i]),
                nodes[i]->blade());
        restore(all, csprintf("os%u", nodeGlobal[i]), nodes[i]->os());
        restore(all, csprintf("net%u", nodeGlobal[i]), nodes[i]->net());
    }

    // Rank-local sections — fault, health, autocounter, stats,
    // transport — partition by the plan that wrote them. Under any
    // other plan they are skipped: the deterministic replay that
    // brought this cluster to the barrier regenerated them, and the
    // re-shard parity tests pin that the continued run is
    // byte-identical to an uninterrupted one.
    bool same_plan = h.shards == cfg.shard.shards;
    if (same_plan) {
        SnapshotErrors ignored;
        Deserializer d(files[0].section("plan", ignored));
        d.getU(); // shard count, already checked via the header
        same_plan = d.getU() == plan_.planHash && d.ok();
    }
    if (!same_plan)
        return err.str();

    std::span<const SnapshotReader> mine = all.subspan(cfg.shard.rank, 1);
    const SnapshotReader &r = mine[0];
    if ((injector_ != nullptr) != r.hasSection("fault"))
        err.add(injector_
                    ? "cluster has a fault injector but the snapshot "
                      "has no 'fault' section"
                    : "snapshot has a 'fault' section but no injector "
                      "is attached — call injectFaults first");
    else if (injector_)
        restore(mine, "fault", *injector_);

    if ((monitor_ != nullptr) != r.hasSection("health"))
        err.add(monitor_
                    ? "cluster has a health monitor but the snapshot "
                      "has no 'health' section"
                    : "snapshot has a 'health' section but no monitor "
                      "is attached — call health() first");
    else if (monitor_)
        restore(mine, "health", *monitor_);

    bool haveSampler = telemetry_ && telemetry_->sampler();
    if (haveSampler != r.hasSection("autocounter"))
        err.add(haveSampler
                    ? "cluster samples AutoCounters but the snapshot "
                      "has no 'autocounter' section"
                    : "snapshot has an 'autocounter' section but this "
                      "cluster has no sampler configured");
    else if (haveSampler)
        restore(mine, "autocounter", *telemetry_->sampler());

    // Transport mix is advisory: a snapshot taken over shm restores
    // fine over TCP (and vice versa) because the simulation surface is
    // transport-independent. Resume re-establishes whatever mix this
    // relaunch negotiated; a difference is only worth a warning.
    if (transport_ && r.hasSection("transport")) {
        SnapshotErrors ignored;
        Deserializer d(r.section("transport", ignored));
        uint64_t n = d.getU();
        for (uint64_t i = 0; d.ok() && i < n; ++i) {
            uint32_t peer = static_cast<uint32_t>(d.getU());
            auto saved = static_cast<TransportKind>(d.getU());
            if (!d.ok())
                break;
            const auto &pranks = transport_->peerRanks();
            for (size_t p = 0; p < pranks.size(); ++p) {
                if (pranks[p] != peer)
                    continue;
                TransportKind live = transport_->peerLinkAt(p)->kind();
                if (live != saved)
                    warn("snapshot reached peer rank %u via %s, this "
                         "run uses %s (legal: results are transport-"
                         "independent)", peer, transportKindName(saved),
                         transportKindName(live));
            }
        }
    }

    // Final byte-identity check: with every counter applied, the stat
    // dump must reproduce the saved one exactly.
    if (telemetry_ && r.hasSection("stats") && err.ok()) {
        // Both sides filtered: older files may predate the filter.
        std::string saved =
            stripHostTimingStats(r.section("stats", err));
        std::string live = stripHostTimingStats(
            telemetry_->registry().dumpJson(h.cycle));
        if (err.ok() && saved != live) {
            size_t at = 0;
            size_t lim = std::min(saved.size(), live.size());
            while (at < lim && saved[at] == live[at])
                ++at;
            err.add(csprintf("stats dump diverges from snapshot at "
                             "byte %zu (snapshot %zu bytes, live %zu)",
                             at, saved.size(), live.size()));
        }
    }

    return err.str();
}

// ---- Signal plumbing ------------------------------------------------

namespace
{

volatile std::sig_atomic_t g_termSignal = 0;

void
onTermSignal(int)
{
    g_termSignal = 1;
}

} // namespace

void
CheckpointManager::installSignalHandlers()
{
    // No SA_RESTART: a blocked poll/read should wake so the run loop
    // reaches the next barrier promptly (the socket layer retries
    // EINTR with its remaining-deadline bookkeeping).
    struct sigaction sa = {};
    sa.sa_handler = onTermSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

bool
CheckpointManager::signalPending()
{
    return g_termSignal != 0;
}

void
CheckpointManager::clearSignal()
{
    g_termSignal = 0;
}

// ---- CheckpointManager ----------------------------------------------

CheckpointManager::CheckpointManager(Cluster &cluster,
                                     CheckpointOptions opts)
    : clu(cluster), opt(std::move(opts))
{
    if (opt.everyRounds && opt.path.empty())
        fatal("checkpoint-every set but no checkpoint path given");
}

std::string
CheckpointManager::writeCheckpoint()
{
    std::string e = clu.saveSnapshot(opt.path);
    if (e.empty()) {
        ++written;
        // Feed the observability plane: checkpoint age in heartbeats,
        // a CheckpointWrite entry in any postmortem.
        if (clu.clusterMonitor())
            clu.clusterMonitor()->noteCheckpoint(clu.now());
        if (clu.flightRecorder()) {
            clu.flightRecorder()->record(
                FlightRecorder::EventKind::CheckpointWrite,
                clu.fabric().round(), clu.now(), opt.path.c_str());
        }
        if (opt.verbose)
            warn("checkpoint %llu written to %s at cycle %llu",
                 (unsigned long long)written, opt.path.c_str(),
                 (unsigned long long)clu.now());
    } else {
        warn("checkpoint failed: %s", e.c_str());
    }
    return e;
}

bool
CheckpointManager::run(Cycles cycles)
{
    Cycles quantum = clu.fabric().quantum();
    // Poll the signal flag at checkpoint granularity, or every 64
    // rounds when periodic checkpointing is off — cheap either way.
    Cycles chunk =
        (opt.everyRounds ? opt.everyRounds : 64) * quantum;
    Cycles done = 0;
    while (done < cycles) {
        if (signalPending()) {
            interrupted_ = true;
            if (opt.finalOnSignal && !opt.path.empty())
                writeCheckpoint();
            if (clu.telemetry())
                clu.telemetry()->dumpAtExit(clu.now());
            return false;
        }
        Cycles step = std::min(cycles - done, chunk);
        clu.run(step);
        done += step;
        if (opt.everyRounds && step == chunk && done < cycles)
            writeCheckpoint();
    }
    return true;
}

// ---- Convenience wrappers -------------------------------------------

bool
snapshotExists(const Cluster &cluster, const std::string &path)
{
    return !findRankZeroFile(path, cluster.config().shard.shards).empty();
}

std::string
resumeFromSnapshot(Cluster &cluster, const std::string &path)
{
    // Rank 0's header names the barrier cycle for every plan.
    SnapshotReader r;
    std::string file;
    std::string e =
        openRankZero(path, cluster.config().shard.shards, r, file);
    if (!e.empty())
        return e;
    Cycles target = r.header().cycle;
    if (cluster.now() > target)
        return csprintf("%s: snapshot at cycle %llu but the cluster "
                        "has already run to %llu — resume needs a "
                        "freshly built cluster",
                        file.c_str(), (unsigned long long)target,
                        (unsigned long long)cluster.now());
    if (cluster.now() < target)
        cluster.run(target - cluster.now());
    std::string verdict = cluster.loadSnapshot(path);
    if (!verdict.empty() && cluster.flightRecorder()) {
        // A diverged restore is a first-class postmortem trigger: the
        // operator gets the last events leading up to the mismatch.
        cluster.flightRecorder()->record(
            FlightRecorder::EventKind::RestoreDiverged,
            cluster.fabric().round(), cluster.now(), verdict.c_str());
        cluster.flightRecorder()->dump("snapshot restore diverged");
    }
    return verdict;
}

bool
runWithCheckpoints(Cluster &cluster, Cycles cycles,
                   const std::string &path, uint64_t every_rounds,
                   bool verbose)
{
    CheckpointManager::installSignalHandlers();
    CheckpointOptions opts;
    opts.path = path;
    opts.everyRounds = every_rounds;
    opts.verbose = verbose;
    CheckpointManager mgr(cluster, opts);
    return mgr.run(cycles);
}

// ---- Warm-boot scenario forking -------------------------------------

std::vector<int>
runScenarioForks(Cluster &cluster, uint32_t forks,
                 const std::function<int(uint32_t)> &scenario)
{
    const ClusterConfig &cfg = cluster.config();
    if (cfg.shard.shards > 1)
        fatal("warm-boot forking needs single-process mode (peer "
              "shard sockets cannot be shared across forks)");
    if (cfg.parallelHosts != 1)
        fatal("warm-boot forking needs parallelHosts == 1 (fork only "
              "carries the calling thread)");

    std::vector<pid_t> pids;
    pids.reserve(forks);
    for (uint32_t k = 0; k < forks; ++k) {
        pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", strerror(errno));
        if (pid == 0) {
            // The child inherits the booted cluster byte-for-byte.
            // _exit skips destructors so the parent keeps sole
            // ownership of telemetry dumps and shared fds.
            int rc = scenario(k);
            ::_exit(rc & 0xff);
        }
        pids.push_back(pid);
    }

    std::vector<int> results;
    results.reserve(forks);
    for (pid_t pid : pids) {
        int status = 0;
        pid_t got;
        do {
            got = ::waitpid(pid, &status, 0);
        } while (got < 0 && errno == EINTR);
        if (got < 0)
            fatal("waitpid(%d): %s", (int)pid, strerror(errno));
        if (WIFEXITED(status))
            results.push_back(WEXITSTATUS(status));
        else
            results.push_back(128 + WTERMSIG(status));
    }
    return results;
}

} // namespace firesim
