#include "net/fabric.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "net/token_io.hh"
#include "snapshot/serial.hh"

namespace firesim
{

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** EWMA smoothing factor for unit costs: heavy enough to track
 *  boot->idle phase changes within a few rounds, light enough to ride
 *  out timer noise. */
constexpr double kCostEwmaAlpha = 0.25;

} // namespace

void
SchedTelemetry::reset(unsigned width)
{
    workers.assign(width, Worker{});
    roundBusy.assign(width, 0);
    rounds = 0;
    sumMaxBusyNs = 0;
    sumTotalBusyNs = 0;
    sumMeanBusyNs = 0.0;
}

void
SchedTelemetry::beginRound()
{
    std::fill(roundBusy.begin(), roundBusy.end(), 0);
}

void
SchedTelemetry::endRound()
{
    uint64_t max = 0, total = 0;
    unsigned active = 0;
    for (uint64_t b : roundBusy) {
        max = std::max(max, b);
        total += b;
        if (b > 0)
            ++active;
    }
    // Rounds where nothing was measured would skew the ratio toward
    // zero; skip them.
    if (total == 0)
        return;
    ++rounds;
    sumMaxBusyNs += max;
    sumTotalBusyNs += total;
    // Mean over the workers that did work this round, not the
    // configured width: a round that used 2 of 8 workers perfectly
    // evenly is balanced (ratio 1), not magically 4x better.
    sumMeanBusyNs +=
        static_cast<double>(total) / static_cast<double>(active);
}

double
SchedTelemetry::maxMeanBusyRatio() const
{
    if (sumMeanBusyNs <= 0.0 || workers.empty())
        return 0.0;
    return static_cast<double>(sumMaxBusyNs) / sumMeanBusyNs;
}

void
TokenFabric::AdvanceUnit::recordCost(uint64_t ns)
{
    double m = static_cast<double>(std::max<uint64_t>(ns, 1));
    costNs = costNs == 0.0 ? m
                           : kCostEwmaAlpha * m +
                                 (1.0 - kCostEwmaAlpha) * costNs;
}

void
TokenEndpoint::advanceBegin(Cycles window_start, Cycles window,
                            const std::vector<const TokenBatch *> &in,
                            std::vector<TokenBatch> &out)
{
    (void)window_start;
    (void)window;
    (void)in;
    (void)out;
    panic("endpoint %s reports %u slices but does not implement "
          "advanceBegin()",
          name().c_str(), advanceSliceCount());
}

void
TokenEndpoint::advanceSlice(uint32_t slice, Cycles window_start,
                            Cycles window,
                            const std::vector<const TokenBatch *> &in,
                            std::vector<TokenBatch> &out)
{
    (void)slice;
    (void)window_start;
    (void)window;
    (void)in;
    (void)out;
    panic("endpoint %s reports %u slices but does not implement "
          "advanceSlice()",
          name().c_str(), advanceSliceCount());
}

void
TokenEndpoint::advanceMerge(Cycles window_start, Cycles window,
                            std::vector<TokenBatch> &out)
{
    (void)window_start;
    (void)window;
    (void)out;
    panic("endpoint %s reports %u slices but does not implement "
          "advanceMerge()",
          name().c_str(), advanceSliceCount());
}

TokenChannel::TokenChannel(Cycles latency, Cycles quantum)
    : lat(latency), quant(quantum)
{
    FS_ASSERT(latency > 0, "link latency must be nonzero");
    FS_ASSERT(quantum > 0 && latency % quantum == 0,
              "quantum %llu must divide latency %llu",
              (unsigned long long)quantum, (unsigned long long)latency);
    // Ring sized for the invariant occupancy plus slack for the one
    // transient extra batch a push-before-pop round shape can create.
    slots.resize(static_cast<size_t>(latency / quantum) + 2);
    // Seed the link with latency/quantum batches of empty tokens: the
    // first `latency` arrival cycles carry nothing because nothing was
    // transmitted before target cycle 0.
    for (Cycles at = 0; at < latency; at += quantum) {
        enqueue(TokenBatch(at, static_cast<uint32_t>(quantum)));
        nextPushStart = at + quantum;
    }
    nextPopStart = 0;
}

void
TokenChannel::enqueue(TokenBatch &&batch)
{
    if (used == slots.size()) {
        // Only reachable through pushRaw() abuse (fault tests stuffing
        // rogue batches); the normal protocol never exceeds the seeded
        // occupancy.
        std::vector<TokenBatch> bigger(slots.size() * 2);
        for (size_t i = 0; i < used; ++i)
            bigger[i] = std::move(slots[(head + i) % slots.size()]);
        slots = std::move(bigger);
        head = 0;
    }
    slots[(head + used) % slots.size()] = std::move(batch);
    ++used;
}

TokenBatch
TokenChannel::dequeue()
{
    TokenBatch batch = std::move(slots[head]);
    head = (head + 1) % slots.size();
    --used;
    return batch;
}

TokenChannel::PushError
TokenChannel::accepts(const TokenBatch &batch) const
{
    if (batch.len != quant)
        return PushError::BadLength;
    if (batch.start + lat != nextPushStart)
        return PushError::NonContiguous;
    return PushError::Ok;
}

void
TokenChannel::push(TokenBatch batch)
{
    FS_ASSERT(batch.len == quant,
              "batch len %u != channel quantum %llu on %s", batch.len,
              (unsigned long long)quant, lbl.c_str());
    // Restamp from production time to arrival time: a token produced at
    // cycle M is consumed at M + latency.
    batch.start += lat;
    FS_ASSERT(batch.start == nextPushStart,
              "non-contiguous batch push on %s: got %llu expected %llu",
              lbl.c_str(), (unsigned long long)batch.start,
              (unsigned long long)nextPushStart);
    nextPushStart += quant;
    flitCount += batch.flits.size();
    enqueue(std::move(batch));
}

void
TokenChannel::pushRaw(TokenBatch batch)
{
    batch.start += lat;
    flitCount += batch.flits.size();
    enqueue(std::move(batch));
}

TokenBatch
TokenChannel::pop()
{
    FS_ASSERT(used > 0, "pop from empty token channel %s", lbl.c_str());
    TokenBatch batch = dequeue();
    FS_ASSERT(batch.start == nextPopStart,
              "non-contiguous batch pop on %s: got %llu expected %llu",
              lbl.c_str(), (unsigned long long)batch.start,
              (unsigned long long)nextPopStart);
    nextPopStart += quant;
    return batch;
}

TokenBatch
TokenChannel::popUnchecked()
{
    FS_ASSERT(used > 0, "pop from empty token channel %s", lbl.c_str());
    TokenBatch batch = dequeue();
    nextPopStart = batch.start + quant;
    return batch;
}

void
TokenFabric::addEndpoint(TokenEndpoint *endpoint)
{
    FS_ASSERT(!finalized, "cannot add endpoints after finalize()");
    FS_ASSERT(endpoint != nullptr, "null endpoint");
    for (const auto &state : endpoints)
        FS_ASSERT(state.endpoint != endpoint, "endpoint %s added twice",
                  endpoint->name().c_str());
    EndpointState state;
    state.endpoint = endpoint;
    state.in.assign(endpoint->numPorts(), nullptr);
    state.out.assign(endpoint->numPorts(), nullptr);
    state.inChan.assign(endpoint->numPorts(), 0);
    state.outChan.assign(endpoint->numPorts(), 0);
    state.remoteOut.assign(endpoint->numPorts(), -1);
    endpoints.push_back(std::move(state));
}

TokenFabric::EndpointState &
TokenFabric::stateFor(TokenEndpoint *endpoint)
{
    for (auto &state : endpoints)
        if (state.endpoint == endpoint)
            return state;
    panic("endpoint %s not registered with fabric",
          endpoint->name().c_str());
}

void
TokenFabric::connect(TokenEndpoint *a, uint32_t port_a, TokenEndpoint *b,
                     uint32_t port_b, Cycles latency)
{
    FS_ASSERT(!finalized, "cannot connect after finalize()");
    EndpointState &sa = stateFor(a);
    EndpointState &sb = stateFor(b);
    FS_ASSERT(port_a < sa.in.size(), "port %u out of range on %s", port_a,
              a->name().c_str());
    FS_ASSERT(port_b < sb.in.size(), "port %u out of range on %s", port_b,
              b->name().c_str());
    for (const auto &link : pendingLinks) {
        bool clash = (link.a == a && link.portA == port_a) ||
                     (link.b == a && link.portB == port_a) ||
                     (link.a == b && link.portA == port_b) ||
                     (link.b == b && link.portB == port_b);
        if (clash)
            fatal("port already connected (%s:%u or %s:%u)",
                  a->name().c_str(), port_a, b->name().c_str(), port_b);
    }
    for (const auto &rl : pendingRemote) {
        if ((rl.local == a && rl.port == port_a) ||
            (rl.local == b && rl.port == port_b))
            fatal("port already remote-connected (%s:%u or %s:%u)",
                  a->name().c_str(), port_a, b->name().c_str(), port_b);
    }

    // Channels are constructed at finalize() time, once the fabric
    // quantum (min latency) is known.
    pendingLinks.push_back(Link{a, port_a, b, port_b, latency});
}

void
TokenFabric::connectRemote(TokenEndpoint *local, uint32_t port,
                           Cycles latency, uint32_t rx_link_id,
                           uint32_t tx_link_id,
                           const std::string &peer_label)
{
    FS_ASSERT(!finalized, "cannot connectRemote after finalize()");
    FS_ASSERT(rx_link_id != tx_link_id,
              "remote link directions need distinct ids (got %u twice)",
              rx_link_id);
    EndpointState &state = stateFor(local);
    FS_ASSERT(port < state.in.size(), "port %u out of range on %s", port,
              local->name().c_str());
    for (const auto &link : pendingLinks) {
        if ((link.a == local && link.portA == port) ||
            (link.b == local && link.portB == port))
            fatal("port already connected (%s:%u)", local->name().c_str(),
                  port);
    }
    for (const auto &rl : pendingRemote) {
        if (rl.local == local && rl.port == port)
            fatal("port already remote-connected (%s:%u)",
                  local->name().c_str(), port);
        if (rl.rxLinkId == rx_link_id || rl.txLinkId == tx_link_id)
            fatal("remote link id %u used twice",
                  rl.rxLinkId == rx_link_id ? rx_link_id : tx_link_id);
    }
    pendingRemote.push_back(RemoteLink{local, port, latency, rx_link_id,
                                       tx_link_id, peer_label});
}

TokenChannel *
TokenFabric::remoteRxChannel(uint32_t link_id) const
{
    for (const auto &rx : remoteRx)
        if (rx.first == link_id)
            return rx.second;
    return nullptr;
}

void
TokenFabric::setRemoteHook(RemoteRoundHook *hook)
{
    FS_ASSERT(!running, "setRemoteHook() mid-run");
    remoteHook = hook;
}

void
TokenFabric::setFunctionalMode(Cycles window)
{
    FS_ASSERT(!finalized, "setFunctionalMode() after finalize()");
    if (window == 0)
        fatal("functional-mode window must be nonzero");
    functionalWindow = window;
}

void
TokenFabric::setParallelHosts(unsigned hosts)
{
    FS_ASSERT(!running, "setParallelHosts() mid-run");
    parHosts = hosts == 0 ? 1 : hosts;
    unsigned width = parHosts >= 2 ? parHosts : 0;
    if ((workers ? workers->width() : 0) == width)
        return;
    workers = width ? std::make_unique<ThreadPool>(width) : nullptr;
    // Measurements from another width do not describe this one.
    schedTel.reset(width);
    for (std::vector<AdvanceUnit> *units : {&beginUnits, &mainUnits})
        for (AdvanceUnit &u : *units)
            u.costNs = 0.0;
}

void
TokenFabric::finalize()
{
    FS_ASSERT(!finalized, "finalize() called twice");
    if (pendingLinks.empty() && pendingRemote.empty())
        fatal("token fabric has no links");

    if (functionalWindow) {
        // Purely functional networking: coarsen every link to the
        // window so the decoupled endpoints advance in big strides.
        for (auto &link : pendingLinks)
            link.latency = functionalWindow;
        for (auto &rl : pendingRemote)
            rl.latency = functionalWindow;
        warn("functional network mode: link timing quantized to %llu "
             "cycles",
             (unsigned long long)functionalWindow);
    }

    // The quantum spans *all* links, remote included: every shard of a
    // distributed target derives the same quantum from the same
    // topology, which the round barrier depends on.
    quant = pendingLinks.empty() ? pendingRemote.front().latency
                                 : pendingLinks.front().latency;
    for (const auto &link : pendingLinks)
        quant = std::min(quant, link.latency);
    for (const auto &rl : pendingRemote)
        quant = std::min(quant, rl.latency);
    for (const auto &link : pendingLinks) {
        if (link.latency % quant != 0) {
            fatal("link latency %llu not a multiple of fabric quantum "
                  "%llu; use commensurate latencies",
                  (unsigned long long)link.latency,
                  (unsigned long long)quant);
        }
    }
    for (const auto &rl : pendingRemote) {
        if (rl.latency % quant != 0) {
            fatal("remote link latency %llu not a multiple of fabric "
                  "quantum %llu; use commensurate latencies",
                  (unsigned long long)rl.latency,
                  (unsigned long long)quant);
        }
    }

    for (const auto &link : pendingLinks) {
        EndpointState &sa = stateFor(link.a);
        EndpointState &sb = stateFor(link.b);
        auto ab = std::make_unique<TokenChannel>(link.latency, quant);
        auto ba = std::make_unique<TokenChannel>(link.latency, quant);
        ab->setLabel(csprintf("%s:%u->%s:%u", link.a->name().c_str(),
                              link.portA, link.b->name().c_str(),
                              link.portB));
        ba->setLabel(csprintf("%s:%u->%s:%u", link.b->name().c_str(),
                              link.portB, link.a->name().c_str(),
                              link.portA));
        auto ab_idx = static_cast<uint32_t>(channels.size());
        sa.out[link.portA] = ab.get();
        sa.outChan[link.portA] = ab_idx;
        sb.in[link.portB] = ab.get();
        sb.inChan[link.portB] = ab_idx;
        sb.out[link.portB] = ba.get();
        sb.outChan[link.portB] = ab_idx + 1;
        sa.in[link.portA] = ba.get();
        sa.inChan[link.portA] = ab_idx + 1;
        channels.push_back(std::move(ab));
        channels.push_back(std::move(ba));
    }

    firstRemoteRx = channels.size();
    for (const auto &rl : pendingRemote) {
        EndpointState &state = stateFor(rl.local);
        // RX half only: seeded like any channel, so the first
        // latency/quantum rounds pop empty batches while the peer's
        // first productions are in flight on the socket.
        auto rx = std::make_unique<TokenChannel>(rl.latency, quant);
        rx->setLabel(csprintf("%s->%s:%u [remote link %u]",
                              rl.peerLabel.c_str(),
                              rl.local->name().c_str(), rl.port,
                              rl.rxLinkId));
        state.in[rl.port] = rx.get();
        state.inChan[rl.port] = static_cast<uint32_t>(channels.size());
        state.remoteOut[rl.port] = static_cast<int64_t>(rl.txLinkId);
        remoteRx.emplace_back(rl.rxLinkId, rx.get());
        channels.push_back(std::move(rx));
    }

    for (auto &state : endpoints) {
        for (uint32_t p = 0; p < state.in.size(); ++p) {
            bool tx_ok = state.out[p] || state.remoteOut[p] >= 0;
            if (!state.in[p] || !tx_ok)
                fatal("port %u of endpoint %s left unconnected", p,
                      state.endpoint->name().c_str());
        }
        // Round buffers are sized once here so the round loop never
        // grows them.
        size_t ports = state.in.size();
        state.popped.reserve(ports);
        state.inPtrs.reserve(ports);
        state.outs.reserve(ports);
    }

    wake.assign(endpoints.size(), 0);
    if (stepOrder.empty()) {
        stepOrder.resize(endpoints.size());
        std::iota(stepOrder.begin(), stepOrder.end(), 0);
    }

    // Build the advance-unit lists the worker pool stripes. A sliced
    // endpoint contributes its serial prologue to the begin pass and
    // one unit per slice to the main pass; everything else is one
    // monolithic unit in the main pass.
    beginUnits.clear();
    mainUnits.clear();
    for (size_t i = 0; i < endpoints.size(); ++i) {
        EndpointState &state = endpoints[i];
        uint32_t slices = state.endpoint->advanceSliceCount();
        FS_ASSERT(slices >= 1, "endpoint %s reports 0 advance slices",
                  state.endpoint->name().c_str());
        state.slices = slices;
        if (slices > 1) {
            beginUnits.push_back(
                {static_cast<uint32_t>(i), FabricObserver::kBeginSlice});
            for (uint32_t s = 0; s < slices; ++s)
                mainUnits.push_back(
                    {static_cast<uint32_t>(i), static_cast<int32_t>(s)});
        } else {
            mainUnits.push_back(
                {static_cast<uint32_t>(i), AdvanceUnit::kWholeEndpoint});
        }
    }

    finalized = true;
}

void
TokenFabric::setStepOrder(std::vector<size_t> order)
{
    FS_ASSERT(order.size() == endpoints.size() || order.empty(),
              "step order size mismatch");
    stepOrder = std::move(order);
}

void
TokenFabric::addObserver(FabricObserver *observer)
{
    FS_ASSERT(observer != nullptr, "null fabric observer");
    FS_ASSERT(!running, "cannot attach observers mid-run");
    observers.push_back(observer);
    observer->onAttach(*this);
}

int
TokenFabric::endpointIndexOf(const std::string &name) const
{
    for (size_t i = 0; i < endpoints.size(); ++i)
        if (endpoints[i].endpoint->name() == name)
            return static_cast<int>(i);
    return -1;
}

bool
TokenFabric::channelIsRemoteRx(size_t idx) const
{
    // finalize() builds every remote RX channel after the local pairs.
    return idx >= firstRemoteRx && idx < channels.size();
}

int
TokenFabric::txChannelOf(size_t endpoint_idx, uint32_t port) const
{
    if (endpoint_idx >= endpoints.size())
        return -1;
    const EndpointState &state = endpoints[endpoint_idx];
    if (port >= state.out.size() || !state.out[port])
        return -1;
    return static_cast<int>(state.outChan[port]);
}

double
TokenFabric::endpointCostNs(size_t idx) const
{
    double total = 0.0;
    for (const std::vector<AdvanceUnit> *units : {&beginUnits, &mainUnits})
        for (const AdvanceUnit &u : *units)
            if (u.endpoint == idx)
                total += u.costNs;
    return total;
}

bool
TokenFabric::reportAnomaly(FabricObserver::Anomaly kind,
                           size_t endpoint_idx, uint32_t port,
                           size_t chan_idx, const TokenBatch &batch)
{
    bool recovered = false;
    for (FabricObserver *obs : observers)
        recovered |= obs->onAnomaly(kind, endpoint_idx, port, chan_idx,
                                    curCycle, batch);
    return recovered;
}

bool
TokenFabric::inputsQuiet(const EndpointState &state) const
{
    for (const TokenChannel *chan : state.in) {
        const TokenBatch *head = chan->front();
        if (!head || head->start != curCycle || !head->flits.empty())
            return false;
    }
    return true;
}

void
TokenFabric::prepareEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    auto ports = static_cast<uint32_t>(state.in.size());

    state.down = false;
    for (FabricObserver *obs : observers)
        state.down |= obs->endpointDown(idx, curCycle);
    // A down endpoint's clock stops where its last round left it, so
    // one that was skipped as quiet catches up to this round first.
    if (state.quiet && state.down)
        state.endpoint->idleTo(curCycle);

    // Quiet: nothing arrives and nothing is due before the window
    // ends. Its inputs stay in their channels until commit forwards
    // them as its outputs.
    state.quiet = !state.down && wake[idx] >= curCycle + quant &&
                  inputsQuiet(state);
    if (state.quiet)
        return;

    // Recycle the input storage of this endpoint's last run: these flit
    // vectors arrived through the channels from whoever produced them,
    // and feed the pool that the output batches below draw from. A
    // quiet endpoint keeps them until it runs again and takes them
    // straight back, so each link keeps the storage its own traffic
    // grew; pooling them while it sleeps would hand small vectors to
    // busy links to regrow and leave grown ones idle.
    for (TokenBatch &spent : state.popped)
        pool.recycle(std::move(spent.flits));
    state.popped.clear();

    for (uint32_t p = 0; p < ports; ++p) {
        // An anomaly an observer recovers is repaired; one nobody
        // recovers (always, when no observer is attached) aborts.
        TokenChannel *chan = state.in[p];
        if (!chan->ready()) {
            TokenBatch missing(chan->nextPopCycle(),
                               static_cast<uint32_t>(quant));
            if (!reportAnomaly(FabricObserver::Anomaly::ChannelUnderflow,
                               idx, p, state.inChan[p], missing)) {
                panic("channel underflow into %s:%u (%s)",
                      state.endpoint->name().c_str(), p,
                      chan->label().c_str());
            }
            state.popped.emplace_back(curCycle,
                                      static_cast<uint32_t>(quant));
            continue;
        }
        TokenBatch batch = chan->popUnchecked();
        if (batch.start != curCycle) {
            if (!reportAnomaly(FabricObserver::Anomaly::StaleBatch, idx, p,
                               state.inChan[p], batch)) {
                panic("non-contiguous batch pop on %s: got %llu "
                      "expected %llu",
                      chan->label().c_str(),
                      (unsigned long long)batch.start,
                      (unsigned long long)curCycle);
            }
            // Recover by restamping the payload into the current window
            // (a real lossy transport delivers late tokens late).
            batch.start = curCycle;
            batch.len = static_cast<uint32_t>(quant);
        }
        state.popped.push_back(std::move(batch));
    }

    state.inPtrs.clear();
    for (uint32_t p = 0; p < ports; ++p)
        state.inPtrs.push_back(&state.popped[p]);

    state.outs.clear();
    for (uint32_t p = 0; p < ports; ++p) {
        TokenBatch out(curCycle, static_cast<uint32_t>(quant));
        out.flits = pool.take();
        state.outs.push_back(std::move(out));
    }

    if (state.down) {
        // Graceful degradation: a crashed / stalled endpoint keeps the
        // token protocol alive with empty batches so every other
        // endpoint stays cycle-exact. Notified here, on the driving
        // thread, so only the advance brackets ever run on workers.
        for (FabricObserver *obs : observers)
            obs->onEndpointSkipped(idx, curCycle);
    }
}

void
TokenFabric::advanceMonolithic(size_t idx)
{
    EndpointState &state = endpoints[idx];
    for (FabricObserver *obs : observers)
        obs->onAdvanceStart(idx, curCycle);
    state.endpoint->advance(curCycle, quant, state.inPtrs, state.outs);
    for (FabricObserver *obs : observers)
        obs->onAdvanceEnd(idx, curCycle);
}

void
TokenFabric::advanceBeginPhase(size_t idx)
{
    EndpointState &state = endpoints[idx];
    for (FabricObserver *obs : observers)
        obs->onSliceStart(idx, FabricObserver::kBeginSlice, curCycle);
    state.endpoint->advanceBegin(curCycle, quant, state.inPtrs,
                                 state.outs);
    for (FabricObserver *obs : observers)
        obs->onSliceEnd(idx, FabricObserver::kBeginSlice, curCycle);
}

void
TokenFabric::advanceSlicePhase(size_t idx, uint32_t slice)
{
    EndpointState &state = endpoints[idx];
    for (FabricObserver *obs : observers)
        obs->onSliceStart(idx, static_cast<int32_t>(slice), curCycle);
    state.endpoint->advanceSlice(slice, curCycle, quant, state.inPtrs,
                                 state.outs);
    for (FabricObserver *obs : observers)
        obs->onSliceEnd(idx, static_cast<int32_t>(slice), curCycle);
}

void
TokenFabric::advanceEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    if (state.down || state.quiet)
        return;
    if (state.slices > 1) {
        // Single-threaded sliced execution: same phases, same observer
        // brackets, inline — so slicing itself cannot perturb results
        // or telemetry relative to the parallel path.
        advanceBeginPhase(idx);
        for (uint32_t s = 0; s < state.slices; ++s)
            advanceSlicePhase(idx, s);
    } else {
        advanceMonolithic(idx);
    }
}

void
TokenFabric::execUnit(const AdvanceUnit &unit)
{
    const EndpointState &state = endpoints[unit.endpoint];
    if (state.down || state.quiet)
        return;
    if (unit.slice == AdvanceUnit::kWholeEndpoint)
        advanceMonolithic(unit.endpoint);
    else if (unit.slice == FabricObserver::kBeginSlice)
        advanceBeginPhase(unit.endpoint);
    else
        advanceSlicePhase(unit.endpoint,
                          static_cast<uint32_t>(unit.slice));
}

void
TokenFabric::dispatchUnits(std::vector<AdvanceUnit> &units)
{
    if (units.empty())
        return;
    workers->parallelRun([this, &units](unsigned w) {
        // Each unit belongs to exactly one worker, so its cost and this
        // worker's telemetry slots are written by one thread only.
        size_t width = workers->width();
        uint64_t busy = 0, run = 0;
        for (size_t i = w; i < units.size(); i += width) {
            if (endpoints[units[i].endpoint].quiet) {
                // Costs nothing this round; the clamp records 1 ns, so
                // a mostly idle endpoint reads as cheap.
                units[i].recordCost(0);
                continue;
            }
            uint64_t t0 = nowNs();
            execUnit(units[i]);
            uint64_t ns = nowNs() - t0;
            units[i].recordCost(ns);
            busy += ns;
            ++run;
        }
        schedTel.workers[w].busyNs += busy;
        schedTel.workers[w].unitsRun += run;
        schedTel.roundBusy[w] += busy;
    });
}

void
TokenFabric::commitEndpoint(size_t idx)
{
    EndpointState &state = endpoints[idx];
    auto ports = static_cast<uint32_t>(state.in.size());
    if (state.quiet) {
        // Pass-through: each port emits the empty batch it was handed,
        // so a quiet round touches neither the endpoint nor the pool.
        for (uint32_t p = 0; p < ports; ++p)
            transmit(idx, p, state.in[p]->popUnchecked());
        return;
    }
    if (!state.down) {
        // Sliced endpoints fold their per-slice scratch into shared
        // state here, on the driving thread in step order, before any
        // of their batches are observed or pushed.
        if (state.slices > 1)
            state.endpoint->advanceMerge(curCycle, quant, state.outs);
        wake[idx] = state.endpoint->nextActivity();
    }
    for (uint32_t p = 0; p < ports; ++p)
        transmit(idx, p, std::move(state.outs[p]));
}

void
TokenFabric::transmit(size_t idx, uint32_t p, TokenBatch &&batch)
{
    EndpointState &state = endpoints[idx];
    TokenChannel *chan = state.out[p];
    ++batchCount;
    if (!chan) {
        // Remote TX: no local channel — serialize the batch to the
        // peer shard instead. Still on the driving thread in step
        // order, so the byte stream (and therefore the peer's
        // simulation) is independent of the worker count. The length
        // invariant is the push()-side check; contiguity is re-checked
        // by the peer's RX push().
        FS_ASSERT(state.remoteOut[p] >= 0 && remoteHook,
                  "unconnected TX port %u on %s", p,
                  state.endpoint->name().c_str());
        FS_ASSERT(batch.len == quant,
                  "batch len %u != quantum %llu on remote link %lld",
                  batch.len, (unsigned long long)quant,
                  (long long)state.remoteOut[p]);
        remoteHook->onTxBatch(static_cast<uint32_t>(state.remoteOut[p]),
                              batch);
        pool.recycle(std::move(batch.flits));
        return;
    }
    for (FabricObserver *obs : observers)
        obs->onTransmit(state.outChan[p], batch);
    TokenChannel::PushError err = chan->accepts(batch);
    if (err != TokenChannel::PushError::Ok) {
        auto kind = err == TokenChannel::PushError::BadLength
                        ? FabricObserver::Anomaly::BadLength
                        : FabricObserver::Anomaly::NonContiguous;
        if (reportAnomaly(kind, idx, p, state.outChan[p], batch)) {
            // Substitute a well-formed empty batch to keep the
            // channel's token stream intact.
            pool.recycle(std::move(batch.flits));
            batch = TokenBatch(curCycle, static_cast<uint32_t>(quant));
        }
        // else: fall through to push(), which aborts with the channel
        // label.
    }
    chan->push(std::move(batch));
}

void
TokenFabric::run(Cycles cycles)
{
    FS_ASSERT(finalized, "run() before finalize()");
    FS_ASSERT(pendingRemote.empty() || remoteHook,
              "remote links configured but no RemoteRoundHook attached");
    running = true;
    Cycles target = curCycle + cycles;
    // Work may have been scheduled on any endpoint since the last run.
    for (size_t i = 0; i < endpoints.size(); ++i)
        wake[i] = endpoints[i].endpoint->nextActivity();

    while (curCycle < target) {
        for (FabricObserver *obs : observers)
            obs->onRoundStart(curCycle, roundCount);

        // Phase 1 (driving thread, step order): down-verdicts, input
        // pops, output-batch prep. Latency seeding guarantees every
        // channel already holds this round's input batch, so all pops
        // complete before any push and channels need no locks.
        for (size_t idx : stepOrder)
            prepareEndpoint(idx);

        // Phase 2: the actual endpoint work, in parallel when a pool
        // is configured. Workers touch only their unit's private round
        // buffers; each dispatch's barrier publishes their writes. The
        // begin pass (sliced endpoints' serial prologues) fully
        // completes before any slice of the main pass runs.
        if (workers) {
            schedTel.beginRound();
            dispatchUnits(beginUnits);
            dispatchUnits(mainUnits);
            schedTel.endRound();
        } else {
            for (size_t idx : stepOrder)
                advanceEndpoint(idx);
        }

        // Phase 3 (driving thread, step order): transmit observers and
        // channel pushes — all shared counters accumulate here, in an
        // order independent of which worker ran what.
        for (size_t idx : stepOrder)
            commitEndpoint(idx);

        for (FabricObserver *obs : observers)
            obs->onRoundEnd(curCycle, roundCount);

        // Distributed round barrier: flush this round's remote batches
        // and block until every peer shard has finished the same round,
        // pushing their batches into our RX channels for the next
        // round's prepare phase. Local-only fabrics skip this entirely.
        if (remoteHook)
            remoteHook->onRoundComplete(roundCount, curCycle);

        curCycle += quant;
        ++roundCount;
    }
    // Endpoint clocks are observable between runs: bring the ones the
    // last round skipped up to date.
    for (EndpointState &state : endpoints) {
        if (state.quiet) {
            state.endpoint->idleTo(curCycle);
            state.quiet = false;
        }
    }
    running = false;
}

// ---- Checkpoint support -------------------------------------------------

void
TokenChannel::snapshotSave(Serializer &s) const
{
    s.putU(lat);
    s.putU(quant);
    s.putU(nextPushStart);
    s.putU(nextPopStart);
    s.putU(used);
    for (size_t i = 0; i < used; ++i)
        saveBatch(s, slots[(head + i) % slots.size()]);
}

void
TokenChannel::snapshotRestore(Deserializer &d, SnapshotErrors &err)
{
    expectEq(err, "channel " + lbl + " latency", (uint64_t)lat, d.getU());
    expectEq(err, "channel " + lbl + " quantum", (uint64_t)quant,
             d.getU());
    Cycles pushStart = d.getU();
    Cycles popStart = d.getU();
    uint64_t n = d.getU();
    std::vector<TokenBatch> batches;
    for (uint64_t i = 0; i < n && d.ok(); ++i)
        batches.push_back(restoreBatch(d));
    if (!d.ok()) {
        err.add("channel " + lbl + ": " + d.error());
        return;
    }
    nextPushStart = pushStart;
    nextPopStart = popStart;
    head = 0;
    used = batches.size();
    if (slots.size() < used)
        slots.resize(used + 2);
    for (size_t i = 0; i < slots.size(); ++i)
        slots[i] = i < used ? std::move(batches[i]) : TokenBatch{};
}

void
TokenFabric::snapshotSave(Serializer &s) const
{
    FS_ASSERT(finalized, "fabric snapshot requires finalize()");
    FS_ASSERT(curCycle % quant == 0,
              "fabric snapshot must happen at a round boundary");
    s.putU(quant);
    s.putU(curCycle);
    s.putU(roundCount);
}

void
TokenFabric::snapshotRestore(Deserializer &d, SnapshotErrors &err)
{
    if (!finalized) {
        err.add("fabric restore requires finalize()");
        return;
    }
    expectEq(err, "fabric quantum", (uint64_t)quant, d.getU());
    Cycles cycle = d.getU();
    uint64_t rounds = d.getU();
    if (!d.ok()) {
        err.add(d.error());
        return;
    }
    curCycle = cycle;
    roundCount = rounds;
}

} // namespace firesim
