#include "manager/cluster.hh"

#include <algorithm>

#include "base/table.hh"
#include "snapshot/snapshot.hh"

namespace firesim
{

NodeSystem::NodeSystem(BladeConfig blade_cfg, OsConfig os_cfg,
                       NetConfig net_cfg, Ip ip)
    : blade_(std::move(blade_cfg)),
      os_(os_cfg, blade_.eventQueue()),
      net_(os_, blade_.nic(), blade_.memory(), net_cfg)
{
    net_.setIp(ip);
}

MacAddr
Cluster::macFor(size_t i)
{
    // Locally administered unicast OUI 02:00:00, then the server index.
    return MacAddr(0x020000000000ULL | (static_cast<uint64_t>(i) + 1));
}

Ip
Cluster::ipFor(size_t i)
{
    // 10.x.y.z with z starting at .1 (the manager's address plan).
    return (10u << 24) | (static_cast<Ip>(i) + 1);
}

namespace
{

/**
 * Resolve this cluster's shard plan: an explicit owner map if given,
 * else the block split. Both are pure functions of the shared config,
 * so every rank independently computes the same plan; planHash
 * double-checks that at rendezvous.
 */
ShardPlan
planFor(const SwitchSpec &topo, const ClusterConfig &cfg)
{
    const ShardSpec &ss = cfg.shard;
    if (!ss.owners.empty())
        return ShardPlan::build(topo, ss.shards, cfg.linkLatency,
                                cfg.switchLatency, cfg.functionalWindow,
                                ss.owners);
    return ShardPlan::build(topo, ss.shards, cfg.linkLatency,
                            cfg.switchLatency, cfg.functionalWindow);
}

} // namespace

Cluster::Cluster(SwitchSpec root, ClusterConfig config, PeerLinks links)
    : topo(std::move(root)), cfg(std::move(config))
{
    const ShardSpec &ss = cfg.shard;
    if (topo.downlinkCount() == 0)
        fatal("cluster topology has an empty root switch");
    if (ss.shards == 0 || ss.rank >= ss.shards)
        fatal("shard rank %u >= shard count %u", ss.rank, ss.shards);
    if (ss.shards == 1 && !links.empty())
        fatal("peer links passed to a single-process cluster");
    if (!links.empty() && links.size() != ss.shards - 1)
        fatal("shard %u: %zu peer link(s) for %u shards (need one per "
              "peer rank)",
              ss.rank, links.size(), ss.shards);
    std::vector<bool> linked(ss.shards, false);
    for (const auto &[peer, link] : links) {
        if (peer >= ss.shards || peer == ss.rank)
            fatal("shard %u: peer link names rank %u (shards %u)",
                  ss.rank, peer, ss.shards);
        if (linked[peer])
            fatal("shard %u: duplicate peer link for rank %u", ss.rank,
                  peer);
        linked[peer] = true;
    }

    if (cfg.functionalWindow)
        fabric_.setFunctionalMode(cfg.functionalWindow);
    plan_ = planFor(topo, cfg);
    const ShardPlan &plan = plan_;

    // Instantiate what this rank owns, in walk order, under *global*
    // names, MACs and IPs, so every component is indistinguishable
    // from its single-process twin (the basis of the byte-identity
    // tests). With one shard this rank owns everything.
    std::vector<TokenEndpoint *> switchEp(plan.nSwitches, nullptr);
    std::vector<TokenEndpoint *> nodeEp(plan.nServers, nullptr);
    for (const ShardPlan::Component &c : plan.walkOrder) {
        uint32_t g = c.index;
        if (c.isSwitch) {
            if (plan.switchOwner[g] != ss.rank)
                continue;
            SwitchConfig scfg;
            scfg.name = csprintf("switch%u", g);
            scfg.ports = plan.switchPorts[g];
            scfg.minLatency = cfg.switchLatency;
            scfg.dropBound = cfg.switchDropBound;
            switchGlobal.push_back(g);
            switches.push_back(std::make_unique<Switch>(scfg));
            switchEp[g] = switches.back().get();
        } else {
            if (plan.serverOwner[g] != ss.rank)
                continue;
            const ServerSpec &server = plan.servers[g];
            BladeConfig bc;
            bc.name = csprintf("node%u", g);
            bc.freqGhz = cfg.freqGhz;
            bc.cores = server.cores;
            bc.memBytes = server.memBytes;
            bc.nic = cfg.nic;
            bc.mac = macFor(g);
            bc.harts = std::min(cfg.harts, server.cores);
            bc.hart = cfg.hart;
            OsConfig oc = cfg.os;
            oc.cores = server.cores;
            oc.seed = cfg.seed + g;
            nodeGlobal.push_back(g);
            nodes.push_back(
                std::make_unique<NodeSystem>(bc, oc, cfg.net, ipFor(g)));
            nodeEp[g] = &nodes.back()->blade();
        }
        fabric_.addEndpoint(c.isSwitch ? switchEp[g] : nodeEp[g]);
    }

    // MAC tables know the *whole* cluster: for every server MAC, the
    // port that leads toward it (a downlink when the server is in that
    // downlink's subtree, else the uplink), so a sharded switch
    // forwards exactly like its single-process twin.
    for (size_t i = 0; i < switches.size(); ++i) {
        uint32_t s = switchGlobal[i];
        uint32_t downlinks =
            static_cast<uint32_t>(plan.portServers[s].size());
        std::vector<uint32_t> port_of(plan.nServers, downlinks);
        for (uint32_t p = 0; p < downlinks; ++p)
            for (uint32_t server : plan.portServers[s][p])
                port_of[server] = p;
        for (uint32_t j = 0; j < plan.nServers; ++j) {
            if (port_of[j] == downlinks && s == 0)
                panic("server %u unreachable from the root switch", j);
            switches[i]->addMacEntry(macFor(j), port_of[j]);
        }
    }

    // Pre-populate every node's ARP table across the whole cluster
    // (static addressing, like the static MAC tables: datacenter
    // topologies are relatively fixed; remote nodes are as addressable
    // as local ones).
    for (size_t i = 0; i < nodes.size(); ++i)
        for (uint32_t j = 0; j < plan.nServers; ++j)
            if (j != nodeGlobal[i])
                nodes[i]->net().addArp(ipFor(j), macFor(j));

    // Wire the links in plan order: both ends local -> an ordinary
    // channel pair; one end local -> a remote half-link, with the
    // global link ids both shards derive from the same plan. The
    // channel -> global-link map follows finalize()'s channel creation
    // order: the local pairs (down then up) first, then every remote RX
    // channel.
    std::vector<uint32_t> remoteRxIds;
    for (size_t k = 0; k < plan.links.size(); ++k) {
        const ShardPlan::Link &l = plan.links[k];
        TokenEndpoint *parent = switchEp[l.parentSwitch];
        TokenEndpoint *child =
            l.childIsSwitch ? switchEp[l.child] : nodeEp[l.child];
        uint32_t down = ShardPlan::downLinkId(k);
        uint32_t up = ShardPlan::upLinkId(k);
        if (parent && child) {
            fabric_.connect(parent, l.parentPort, child, l.childPort,
                            cfg.linkLatency);
            channelGlobalLink.push_back(down);
            channelGlobalLink.push_back(up);
        } else if (parent) {
            fabric_.connectRemote(parent, l.parentPort, cfg.linkLatency,
                                  up, down,
                                  csprintf(l.childIsSwitch ? "switch%u"
                                                           : "node%u",
                                           l.child));
            remoteRxIds.push_back(up);
        } else if (child) {
            fabric_.connectRemote(child, l.childPort, cfg.linkLatency,
                                  down, up,
                                  csprintf("switch%u", l.parentSwitch));
            remoteRxIds.push_back(down);
        }
    }
    channelGlobalLink.insert(channelGlobalLink.end(), remoteRxIds.begin(),
                             remoteRxIds.end());

    fabric_.finalize();
    FS_ASSERT(channelGlobalLink.size() == fabric_.channelCount(),
              "channel/global-link map mismatch: %zu links mapped, %zu "
              "channels built",
              channelGlobalLink.size(), fabric_.channelCount());
    fabric_.setParallelHosts(cfg.parallelHosts);

    if (ss.shards > 1)
        connectShards(std::move(links));

    if (cfg.telemetry.enabled)
        setupTelemetry();
    setupObservability();

    for (auto &node : nodes)
        node->start();
}

void
Cluster::connectShards(PeerLinks links)
{
    const ShardSpec &ss = cfg.shard;
    ShardTransport::Options topts;
    topts.rank = ss.rank;
    topts.shards = ss.shards;
    topts.host = ss.connectHost;
    topts.basePort = ss.basePort;
    topts.recvTimeoutMs = ss.recvTimeoutMs;
    topts.connectTimeoutMs = ss.connectTimeoutMs;
    topts.failFast = ss.failFast;
    // Periodic telemetry piggyback (telemetry/aggregate): only useful
    // when a telemetry bundle will exist to snapshot.
    topts.statsEvery =
        cfg.telemetry.enabled ? cfg.telemetry.aggregateEvery : 0;
    topts.transport = ss.transport;
    topts.shmRingBytes = ss.shmRingBytes;
    transport_ = links.empty()
                     ? ShardTransport::rendezvousTcp(topts, plan_.planHash)
                     : ShardTransport::fromLinks(topts, std::move(links),
                                                 plan_.planHash);
    for (size_t i = 0; i < transport_->peerRanks().size(); ++i) {
        inform("shard %u: peer rank %u via %s", ss.rank,
               transport_->peerRanks()[i],
               transport_->peerLinkAt(i)->describe().c_str());
    }

    // Bind every cross-shard link: the direction arriving here feeds
    // its remote RX channel, the one leaving is shipped to the peer.
    bool any_cross = false;
    for (size_t k = 0; k < plan_.links.size(); ++k) {
        const ShardPlan::Link &l = plan_.links[k];
        uint32_t parent_owner = plan_.ownerOfLink(l, false);
        uint32_t child_owner = plan_.ownerOfLink(l, true);
        if (parent_owner == child_owner ||
            (parent_owner != ss.rank && child_owner != ss.rank))
            continue;
        bool own_parent = parent_owner == ss.rank;
        uint32_t peer = own_parent ? child_owner : parent_owner;
        uint32_t rx = own_parent ? ShardPlan::upLinkId(k)
                                 : ShardPlan::downLinkId(k);
        uint32_t tx = own_parent ? ShardPlan::downLinkId(k)
                                 : ShardPlan::upLinkId(k);
        transport_->bindRxChannel(rx, peer, fabric_.remoteRxChannel(rx));
        transport_->bindTxLink(tx, peer);
        any_cross = true;
    }
    if (!any_cross)
        warn("shard %u has no cross-shard links; peers barrier every "
             "round but exchange no tokens",
             ss.rank);
    fabric_.setRemoteHook(transport_.get());

    // Eagerly attach the health monitor: observers cannot attach
    // mid-run, and peer-shard loss is a mid-run event.
    health();
    transport_->onPeerLoss(
        [this](uint32_t peer, uint64_t round, Cycles cycle) {
            FaultEvent ev;
            ev.kind = FaultEvent::Kind::PeerShardLost;
            ev.round = round;
            ev.cycle = cycle;
            ev.detail = csprintf(
                "peer shard %u lost; its cross-shard links degraded to "
                "empty tokens",
                peer);
            monitor_->record(std::move(ev));
            // Peer loss is exactly what the flight recorder exists
            // for: capture the event and dump the postmortem now,
            // while this rank is still healthy enough to write it.
            if (recorder_) {
                recorder_->record(
                    FlightRecorder::EventKind::PeerLoss, round, cycle,
                    csprintf("peer shard %u lost", peer).c_str(), peer);
                recorder_->dump(csprintf("peer shard %u lost", peer));
            }
        });
}

Cluster::~Cluster()
{
    // One last heartbeat so short runs (fewer rounds than the cadence)
    // still leave a record, and long ones end on current numbers.
    if (clusterMonitor_ && clusterMonitor_->config().heartbeatEvery != 0)
        clusterMonitor_->emitHeartbeat(fabric_.now(), fabric_.round());

    // Final cross-shard stats exchange, before Bye: the last round
    // rarely lands on an aggregateEvery boundary, and the merged dump
    // should reflect end-of-run values. Gated on dumpDir so runs that
    // dump nothing keep the exact pre-observability shutdown sequence
    // (every shard must share one config, so the gate is symmetric).
    if (transport_ && telemetry_ && !cfg.telemetry.dumpDir.empty()) {
        transport_->exchangeFinalStats(fabric_.round(), fabric_.now());
        if (aggregator_)
            aggregator_->accept(
                localRankTelemetry(fabric_.round(), fabric_.now()));
    }

    if (transport_)
        transport_->shutdown();
    if (telemetry_) {
        telemetry_->dumpAtExit(fabric_.now());
        writeMergedDumps();
    }
}

void
Cluster::run(Cycles cycles)
{
    if (telemetry_) {
        telemetry_->simRate().beginPhase(
            csprintf("run.%llu", (unsigned long long)fabric_.now()),
            fabric_.now());
        fabric_.run(cycles);
        telemetry_->simRate().endPhase(fabric_.now());
    } else {
        fabric_.run(cycles);
    }
}

void
Cluster::setupTelemetry()
{
    telemetry_ = std::make_unique<Telemetry>(cfg.telemetry);
    StatRegistry &reg = telemetry_->registry();

    for (auto &s : switches)
        s->registerStats(reg, "cluster." + s->name());

    for (auto &node : nodes) {
        std::string prefix = "cluster." + node->name();
        node->blade().registerStats(reg, prefix);

        const NetStackStats &ns = node->net().stats();
        reg.registerCounter(prefix + ".net.framesTx", ns.framesTx);
        reg.registerCounter(prefix + ".net.framesRx", ns.framesRx);
        reg.registerCounter(prefix + ".net.icmpEchoed", ns.icmpEchoed);
        reg.registerCounter(prefix + ".net.udpDelivered", ns.udpDelivered);
        reg.registerCounter(prefix + ".net.udpNoPort", ns.udpNoPort);
        reg.registerCounter(prefix + ".net.socketOverflowDrops",
                            ns.socketOverflowDrops);

        const SimOS *os = &node->os();
        reg.registerProbe(prefix + ".os.busyCycles", [os] {
            return static_cast<double>(os->busyCycles());
        });
    }

    const TokenFabric *fab = &fabric_;
    reg.registerProbe("cluster.fabric.rounds",
                      [fab] { return static_cast<double>(fab->round()); });
    reg.registerProbe("cluster.fabric.batchesMoved", [fab] {
        return static_cast<double>(fab->batchesMoved());
    });

    if (transport_) {
        // Per-peer transport accounting. Byte and batch counts are a
        // pure function of the token streams, so they stay
        // byte-identical run to run (the wall-clock stall time is
        // deliberately not exported).
        const ShardTransport *tr = transport_.get();
        reg.registerProbe("cluster.shard.livePeers", [tr] {
            return static_cast<double>(tr->livePeers());
        });
        for (size_t i = 0; i < tr->peerRanks().size(); ++i) {
            std::string pp =
                csprintf("cluster.shard.peer%u", tr->peerRanks()[i]);
            reg.registerProbe(pp + ".bytesTx", [tr, i] {
                return static_cast<double>(tr->peerStatsAt(i).bytesTx);
            });
            reg.registerProbe(pp + ".bytesRx", [tr, i] {
                return static_cast<double>(tr->peerStatsAt(i).bytesRx);
            });
            reg.registerProbe(pp + ".batchesTx", [tr, i] {
                return static_cast<double>(tr->peerStatsAt(i).batchesTx);
            });
            reg.registerProbe(pp + ".batchesRx", [tr, i] {
                return static_cast<double>(tr->peerStatsAt(i).batchesRx);
            });
            reg.registerProbe(pp + ".roundsBarriered", [tr, i] {
                return static_cast<double>(
                    tr->peerStatsAt(i).roundsBarriered);
            });
            // Bridge-layer accounting. Everything under cluster.shard.
            // is host-side and stripped by the parity differ, so the
            // fabric choice can never leak into the deterministic
            // simulation surface.
            reg.registerProbe(pp + ".transport.kind", [tr, i] {
                return static_cast<double>(
                    static_cast<uint8_t>(tr->peerLinkAt(i)->kind()));
            });
            // Ring counters are registered for every fabric (zero on
            // links without rings): the AutoCounter sampler pins its
            // column set at the first sample and a snapshot restores
            // that set verbatim, so the registry shape must not vary
            // with the transport choice — only values may.
            auto shmStat = [tr, i](auto field) {
                const ShmLinkStats *s = tr->peerLinkAt(i)->shmStats();
                return s ? static_cast<double>(s->*field) : 0.0;
            };
            reg.registerProbe(pp + ".transport.ringBytes", [shmStat] {
                return shmStat(&ShmLinkStats::ringBytes);
            });
            reg.registerProbe(
                pp + ".transport.bytesViaRing", [shmStat] {
                    return shmStat(&ShmLinkStats::bytesViaRing);
                });
            reg.registerProbe(
                pp + ".transport.txRingFullWaits", [shmStat] {
                    return shmStat(&ShmLinkStats::txRingFullWaits);
                });
        }
    }

    telemetry_->attach(fabric_);

    if (transport_ && cfg.telemetry.hostProfile) {
        // Bridge the transport's flush/barrier phases into the Chrome
        // trace as spans on the driving thread (tid 0).
        TraceEventSink *sink = &telemetry_->traceSink();
        transport_->setSpanHook(
            [sink](const char *name, uint64_t dur_ns) {
                double dur_us = static_cast<double>(dur_ns) / 1e3;
                sink->complete(sink->intern(name), "shard",
                               sink->nowUs() - dur_us, dur_us);
            });
    }

    if (HostProfiler *prof = telemetry_->profiler()) {
        for (size_t i = 0; i < fabric_.endpointCount(); ++i) {
            const TokenEndpoint *ep = &fabric_.endpointAt(i);
            bool is_switch = false;
            for (const auto &s : switches)
                is_switch = is_switch || s.get() == ep;
            prof->labelEndpoint(i, ep->name(),
                                is_switch ? "switch" : "blade");
        }
    }
}

void
Cluster::setupObservability()
{
    const ShardSpec &ss = cfg.shard;
    bool sharded = ss.shards > 1;

    if (cfg.flightRecorder.enabled) {
        FlightRecorderConfig fc = cfg.flightRecorder;
        if (fc.path.empty())
            fc.path = "flight-recorder.jsonl";
        if (sharded)
            fc.path = snapshotRankPath(fc.path, ss.shards, ss.rank);
        recorder_ = std::make_unique<FlightRecorder>(fc);
    }

    if (cfg.monitor.enabled()) {
        MonitorConfig mc = cfg.monitor;
        mc.targetFreqGhz = cfg.freqGhz;
        if (mc.heartbeatPath.empty())
            mc.heartbeatPath = "heartbeat.jsonl";
        if (sharded) {
            mc.heartbeatPath =
                snapshotRankPath(mc.heartbeatPath, ss.shards, ss.rank);
            if (!mc.metricsPath.empty())
                mc.metricsPath =
                    snapshotRankPath(mc.metricsPath, ss.shards, ss.rank);
        }
        clusterMonitor_ = std::make_unique<ClusterMonitor>(
            mc, ss.rank, sharded ? ss.shards : 1);
        clusterMonitor_->setTransport(transport_.get());
        clusterMonitor_->setFlightRecorder(recorder_.get());
        clusterMonitor_->setHealthEventsProvider([this]() -> uint64_t {
            return monitor_ ? monitor_->totalEvents() : 0;
        });
        clusterMonitor_->setStragglerSink(
            [this](uint32_t rank, uint64_t latency_ns,
                   uint64_t median_ns, uint64_t round, Cycles cycle) {
                std::string what = csprintf(
                    "rank %u round latency %llu ns exceeds %gx the "
                    "cluster median %llu ns",
                    rank, (unsigned long long)latency_ns,
                    clusterMonitor_->config().stragglerFactor,
                    (unsigned long long)median_ns);
                // The HealthMonitor can only be raised through here
                // when it is already attached (observers cannot attach
                // mid-run); sharded builds attach it eagerly, and a
                // single-process run has no peers to straggle behind.
                if (monitor_) {
                    FaultEvent ev;
                    ev.kind = FaultEvent::Kind::StragglerDetected;
                    ev.round = round;
                    ev.cycle = cycle;
                    ev.detail = what;
                    monitor_->record(std::move(ev));
                } else {
                    warn("straggler: %s", what.c_str());
                }
                if (recorder_) {
                    recorder_->record(
                        FlightRecorder::EventKind::Straggler, round,
                        cycle, csprintf("rank %u", rank).c_str(),
                        latency_ns, median_ns);
                }
            });
        fabric_.addObserver(clusterMonitor_.get());
    }

    wireHealthObservability();

    if (transport_) {
        if (clusterMonitor_) {
            ClusterMonitor *cm = clusterMonitor_.get();
            transport_->setRoundLatencyProvider(
                [cm] { return cm->roundLatencyNs(); });
        }
        // Satellite of the failFast path: flush telemetry and the
        // flight recorder before the transport's fatal() so an abort
        // on peer loss never leaves empty dumps behind.
        transport_->setFatalFlushHook([this] {
            if (telemetry_)
                telemetry_->dumpAtExit(fabric_.now());
            if (recorder_)
                recorder_->dump("peer shard lost (fail-fast)");
        });
        if (telemetry_ && !cfg.telemetry.dumpDir.empty()) {
            if (ss.rank == 0) {
                aggregator_ = std::make_unique<StatAggregator>();
                StatAggregator *agg = aggregator_.get();
                transport_->setStatsConsumer(
                    [agg](uint32_t peer, const std::string &payload) {
                        agg->acceptEncoded(peer, payload);
                    });
            } else {
                transport_->setStatsProvider(
                    [this](uint64_t round, Cycles cycle) {
                        return encodeRankTelemetry(
                            localRankTelemetry(round, cycle));
                    });
            }
        }
    }
}

void
Cluster::wireHealthObservability()
{
    if (!monitor_ || !recorder_)
        return;
    FlightRecorder *fr = recorder_.get();
    monitor_->setEventHook([fr](const FaultEvent &ev) {
        fr->record(FlightRecorder::EventKind::HealthEvent, ev.round,
                   ev.cycle, ev.detail.c_str(),
                   static_cast<uint64_t>(ev.kind));
    });
}

RankTelemetry
Cluster::localRankTelemetry(uint64_t round, Cycles cycle)
{
    RankTelemetry rt;
    rt.rank = cfg.shard.rank;
    rt.round = round;
    rt.cycle = cycle;
    rt.stats = telemetry_->registry().snapshot(cycle);
    rt.phases = telemetry_->simRate().phases();
    return rt;
}

void
Cluster::writeMergedDumps()
{
    if (!aggregator_ || cfg.telemetry.dumpDir.empty())
        return;
    std::string dir = cfg.telemetry.dumpDir + "/";
    auto put = [&](const char *name, const std::string &bytes) {
        std::string err =
            atomicWriteFile(dir + name, bytes, "merged dump");
        if (!err.empty())
            warn("merged telemetry dump: %s", err.c_str());
    };
    put("merged_stats.json", aggregator_->mergedJson());
    put("merged_stats.csv", aggregator_->mergedCsv());
    put("merged_trace.json", aggregator_->mergedTraceJson());
    inform("telemetry: merged dumps for %zu rank(s) written to %s",
           aggregator_->rankCount(), cfg.telemetry.dumpDir.c_str());
}

HealthMonitor &
Cluster::health()
{
    if (!monitor_) {
        monitor_ = std::make_unique<HealthMonitor>(fabric_);
        wireHealthObservability();
    }
    return *monitor_;
}

HealthMonitor &
Cluster::health(const HealthConfig &config)
{
    if (monitor_)
        fatal("health monitor already attached; its config is fixed");
    monitor_ = std::make_unique<HealthMonitor>(fabric_, config);
    wireHealthObservability();
    return *monitor_;
}

void
Cluster::injectFaults(const FaultPlan &plan)
{
    if (injector_)
        fatal("cluster already has a fault plan injected");
    if (fabric_.now() != 0)
        warn("fault plan injected mid-run at cycle %llu",
             (unsigned long long)fabric_.now());
    HealthMonitor &mon = health();
    injector_ = std::make_unique<FaultInjector>(fabric_, plan, &mon);
}

std::string
Cluster::healthReport() const
{
    if (!monitor_)
        return "Fabric health report\n  no monitor attached; run was "
               "unobserved (and did not abort)\n";
    std::string out = monitor_->report();

    Table sw({"Switch", "Port transitions", "Flits dropped (in)",
              "Pkts dropped (out)"});
    bool any = false;
    for (const auto &s : switches) {
        const SwitchStats &st = s->stats();
        if (st.portTransitions.value() == 0 &&
            st.faultFlitsDroppedIn.value() == 0 &&
            st.faultPacketsDroppedOut.value() == 0)
            continue;
        any = true;
        sw.addRow({s->name(), Table::fmt(st.portTransitions.value(), 0),
                   Table::fmt(st.faultFlitsDroppedIn.value(), 0),
                   Table::fmt(st.faultPacketsDroppedOut.value(), 0)});
    }
    if (any)
        out += sw.render();
    return out;
}

std::string
Cluster::statsReport()
{
    std::string out;
    Table sw({"Switch", "Ports", "Pkts in", "Pkts out", "Dropped",
              "Bytes out"});
    for (auto &s : switches) {
        const SwitchStats &st = s->stats();
        sw.addRow({s->name(), Table::fmt(s->config().ports, 0),
                   Table::fmt(st.packetsIn.value(), 0),
                   Table::fmt(st.packetsOut.value(), 0),
                   Table::fmt(st.packetsDropped.value(), 0),
                   Table::fmt(st.bytesOut.value(), 0)});
    }
    out += sw.render();
    out += "\n";

    Table nd({"Node", "IP", "Frames tx", "Frames rx", "RX drops",
              "CPU busy %"});
    double window = static_cast<double>(std::max<Cycles>(1, now()));
    for (auto &node : nodes) {
        const NicStats &nic = node->blade().nic().stats();
        double busy =
            100.0 * static_cast<double>(node->os().busyCycles()) /
            (window * node->os().config().cores);
        nd.addRow({node->name(), ipStr(node->ip()),
                   Table::fmt(nic.framesSent.value(), 0),
                   Table::fmt(nic.framesReceived.value(), 0),
                   Table::fmt(nic.framesDroppedRx.value(), 0),
                   Table::fmt(busy, 1)});
    }
    out += nd.render();
    return out;
}

} // namespace firesim
