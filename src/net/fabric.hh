/**
 * @file
 * The decoupled token fabric (paper Section III-B2).
 *
 * Endpoints (server blades and switches) expose numbered link ports.
 * Every port pair is connected by two unidirectional TokenChannels.
 * A channel of latency N always carries N cycles of in-flight tokens: a
 * flit issued by one endpoint at cycle M is consumed by the other at
 * M + N.
 *
 * Host-transport batching: tokens move in batches of `quantum` cycles.
 * FireSim sets the batch size to the link latency; when a topology mixes
 * latencies, the fabric batches by the smallest latency and seeds longer
 * channels with proportionally more in-flight batches, which preserves
 * per-flit delivery cycles exactly.
 *
 * Determinism: in every round an endpoint consumes the batch for the
 * round's window on each input port and produces one on each output
 * port, so results are independent of the order in which endpoints are
 * stepped (property-tested in tests/net).
 *
 * Activity-driven rounds: most endpoints have nothing to do in most
 * rounds, and stepping one that has no flit arriving and nothing of its
 * own due before the round ends would only move empty batches and its
 * clock. The fabric therefore keeps one wake cycle per endpoint: the
 * earlier of its nextActivity() and the arrival of the first flit-
 * carrying batch stored in its input channels (a push of such a batch
 * lowers its consumer's wake). A round visits only the endpoints whose
 * wake falls inside it; the others' empty batches are implied by the
 * channel cursors (TokenChannel) and never moved. When no endpoint is
 * due at all, the fabric jumps straight to the round holding the
 * earliest wake, bounded by run()'s target, and counts the skipped
 * rounds and the batches they would have moved in round() and
 * batchesMoved(). A skipped endpoint's clock is brought up to date with
 * idleTo() when it becomes observable: when run() returns, or when an
 * observer takes it down. Wakes are re-read at run() start, so work
 * scheduled between run() calls is seen.
 *
 * With a FabricObserver or a RemoteRoundHook attached, every endpoint
 * counts as due every round, so observers see every endpointDown()
 * question and every onTransmit() batch, and the remote barrier sees
 * every round. Such a visited endpoint is still not advanced when it is
 * *quiet* (not down, inputs empty, wake at or after the round's end):
 * the fabric forwards its empty inputs as its outputs instead.
 *
 * Parallel round execution: the step-order independence is the license
 * to advance endpoints concurrently within a round — the decomposition
 * the paper uses to put one blade per FPGA. Each round runs in three
 * phases over the endpoints it visits:
 *
 *   1. prepare (driving thread, step order): per endpoint, query the
 *      observers' down-verdict and the quiet verdict; any endpoint
 *      that runs takes its input batch per port and has its output
 *      batches reset.
 *   2. advance (worker pool, barrier at the end): endpoint->advance()
 *      calls run concurrently. Every channel already holds this round's
 *      input batch before the round starts (latency seeding), so
 *      workers touch only their endpoint's private buffers — channels
 *      are never accessed concurrently. Endpoints may further split
 *      this phase into AdvanceUnits (a serial begin, N concurrent
 *      slices, a driving-thread merge — see TokenEndpoint), and worker
 *      w of a W-wide pool runs units w, w+W, w+2W, ... Placement is
 *      pure host policy and never affects simulated state.
 *   3. commit (driving thread, step order): per endpoint, merge any
 *      slice scratch, then run transmit observers and push the
 *      produced batches into their channels.
 *
 * Because phases 1 and 3 run on the driving thread in step order, every
 * observer callback except onAdvanceStart/onAdvanceEnd fires in a
 * deterministic sequence that is independent of the worker count, and
 * all shared counters are accumulated there — simulation results,
 * stats dumps, AutoCounter samples, and fault diagnostics are
 * byte-identical between 1 worker and N workers, and between visiting
 * only due endpoints and visiting all of them.
 *
 * Fault modeling and health monitoring: FabricObservers (src/fault) may
 * attach to the fabric to take endpoints down, mutate in-flight batches,
 * and convert token-protocol violations — an endpoint that stops
 * producing well-formed batches — into structured diagnostics instead of
 * aborts. With no observers attached the fabric behaves exactly as it
 * always has: protocol violations are hard invariant failures.
 */

#ifndef FIRESIM_NET_FABRIC_HH
#define FIRESIM_NET_FABRIC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "net/token.hh"

namespace firesim
{

class TokenFabric;
class Serializer;
class Deserializer;
struct SnapshotErrors;

/**
 * Host-side load-balance accounting for the parallel advance phase,
 * shared by the begin and main passes so per-worker busy time
 * aggregates per *round*. All numbers are wall-clock: never
 * byte-identical between runs, never part of the deterministic
 * telemetry surface.
 */
struct SchedTelemetry
{
    struct Worker
    {
        uint64_t busyNs = 0;   //!< total ns spent inside unit advances
        uint64_t unitsRun = 0; //!< units this worker executed
    };

    std::vector<Worker> workers;
    uint64_t rounds = 0;         //!< measured rounds
    uint64_t sumMaxBusyNs = 0;   //!< Σ over rounds of max-worker busy
    uint64_t sumTotalBusyNs = 0; //!< Σ over rounds of Σ-worker busy
    /** Σ over rounds of (Σ-worker busy / workers *that did work*).
     *  Dividing by the configured width would understate imbalance
     *  whenever a round uses fewer workers than the pool has (fewer
     *  units than workers, a begin-only pass, ...). */
    double sumMeanBusyNs = 0.0;
    /** Per-round per-worker busy scratch (both passes accumulate into
     *  the same round). */
    std::vector<uint64_t> roundBusy;

    /** Reset all counters for a pool of @p width workers. */
    void reset(unsigned width);

    /** Bracket one fabric round (driving thread). */
    void beginRound();
    void endRound();

    /**
     * Load-balance figure of merit, weighted by round length:
     * Σ(per-round max worker busy) / Σ(per-round mean busy of the
     * workers that did work). 1.0 is perfect balance; N is one worker
     * doing everything while N-1 active workers idle.
     */
    double maxMeanBusyRatio() const;
};

/**
 * One direction of a simulated link.
 *
 * The channel stores only the batches that carry flits. Two cursors
 * stand for the rest: the arrival window of the next push (producer
 * side) and of the next pop (consumer side). Every window between them
 * that no stored batch covers holds an implied empty batch, so a
 * healthy link always has latency/quantum batches in flight at a round
 * boundary (depth()) while an idle one costs no storage and no work.
 */
class TokenChannel
{
  public:
    /** Why a batch cannot be accepted (see accepts()). */
    enum class PushError
    {
        Ok,            //!< batch is well formed and contiguous
        BadLength,     //!< batch length differs from the channel quantum
        NonContiguous, //!< batch start does not extend the token stream
    };

    /**
     * @param latency link latency in cycles
     * @param quantum batch length in cycles (must divide latency)
     */
    TokenChannel(Cycles latency, Cycles quantum);

    Cycles latency() const { return lat; }
    Cycles quantum() const { return quant; }

    /**
     * Debug label naming the producing and consuming endpoint:port,
     * set by TokenFabric::connect and reported in protocol-violation
     * diagnostics (a bare cycle number is useless in a 64-node run).
     */
    const std::string &label() const { return lbl; }
    void setLabel(std::string label) { lbl = std::move(label); }

    /** Check whether push(batch) would satisfy the token protocol. */
    PushError accepts(const TokenBatch &batch) const;

    /**
     * Producer side: enqueue the next batch. A batch that carries flits
     * is restamped to its arrival window and moved in; an empty one only
     * advances the push cursor and is left with the caller, storage
     * included. Returns true when the batch was moved in.
     */
    bool push(TokenBatch &&batch);

    /**
     * Testing / fault-injection hook: enqueue a batch with the usual
     * production-to-arrival restamp but *without* the contiguity check
     * and without touching the push cursor, deliberately corrupting the
     * token stream so consumer-side error handling can be exercised.
     * The batch is stored even when empty and pops ahead of every
     * batch pushed after it.
     */
    void pushRaw(TokenBatch batch);

    /** Consumer side: true when a batch is ready. */
    bool ready() const { return depth() > 0; }

    /** Consumer side: dequeue the next batch. */
    TokenBatch pop();

    /**
     * Consumer side: dequeue without the contiguity invariant check.
     * Used by the fabric's health-monitored path, which reports and
     * repairs non-contiguous streams instead of aborting.
     */
    TokenBatch popUnchecked();

    /** Arrival cycle of the window the next pop is expected to carry. */
    Cycles nextPopCycle() const { return popAt; }

    /** True when the next pop yields an empty batch for window @p at. */
    bool idleAt(Cycles at) const;

    /** Arrival cycle of the first stored batch, or kNoCycle. */
    Cycles nextArrival() const
    {
        return used ? slotOf(slots[head]) : kNoCycle;
    }

    /** Number of batches in flight, stored or implied. */
    size_t depth() const
    {
        return static_cast<size_t>((pushAt - popAt) / quant) + raws;
    }

    /** Steady-state depth: latency/quantum batches are always in flight. */
    size_t expectedDepth() const
    {
        return static_cast<size_t>(lat / quant);
    }

    /**
     * Flit storage bound to this link. The consumer hands back the
     * storage of a batch it is done with, and the producer takes it for
     * the next batch it fills, so each link keeps the capacity its own
     * traffic grew and the steady-state round loop allocates nothing.
     * At most latency/quantum + 1 spares are kept. takeStorage() with
     * none spare returns an empty vector and counts a miss.
     */
    std::vector<Flit> takeStorage();
    void returnStorage(std::vector<Flit> flits);
    /** takeStorage() calls that found no spare. */
    uint64_t storageMisses() const { return misses; }

    /**
     * Account for rounds in which the fabric stepped neither end of the
     * link: every window produced before round @p round carried nothing,
     * and the consumer has taken every window before @p round. Neither
     * cursor moves back. No stored batch may arrive before @p round.
     */
    void catchUp(Cycles round);

    /**
     * Serialize the channel's full mid-flight state: latency/quantum
     * (verified on restore), both stream cursors, and every in-flight
     * batch, the implied empty ones written out like stored ones.
     * Restore stores only the batches that carry flits again, so a
     * restored channel pops the exact batches the saved one would.
     */
    void snapshotSave(Serializer &s) const;
    void snapshotRestore(Deserializer &d, SnapshotErrors &err);

  private:
    struct Stored
    {
        TokenBatch batch;
        /** For a pushRaw() batch, the pop window it stands in front
         *  of; kNoCycle for a batch stored by push(). */
        Cycles rawSlot = kNoCycle;
    };

    /** The pop window a stored batch is due at. */
    static Cycles slotOf(const Stored &e)
    {
        return e.rawSlot != kNoCycle ? e.rawSlot : e.batch.start;
    }

    /** Append to the ring, growing only if it is full (never for a
     *  healthy stream: the ring is sized for latency/quantum + slack). */
    void enqueue(Stored &&entry);
    /** The next batch in stream order, stored or implied; requires
     *  ready(). */
    TokenBatch take();

    Cycles lat;
    Cycles quant;
    std::string lbl = "unnamed-channel";
    Cycles pushAt = 0; //!< arrival window of the next push
    Cycles popAt = 0;  //!< arrival window of the next pop
    size_t raws = 0;   //!< pushRaw() batches still stored
    // Fixed-capacity ring of the stored batches instead of a deque: at
    // most latency/quantum of them are in flight, so a ring sized at
    // the first store never reallocates — one piece of the hot loop's
    // zero-allocation guarantee (tests/net/fabric_alloc_test).
    std::vector<Stored> slots;
    size_t head = 0; //!< index of the oldest stored batch
    size_t used = 0; //!< stored batches in the ring
    std::vector<std::vector<Flit>> spare; //!< see takeStorage()
    uint64_t misses = 0;
};

/**
 * Anything that terminates simulated links: a server blade's NIC-side
 * token interface or a switch. The FAME-1 contract: advance() is handed
 * exactly one input batch per port and must fill one output batch per
 * port, advancing the component by `window` cycles.
 *
 * Threading: in parallel mode the fabric calls advance() from a worker
 * thread, concurrently with other endpoints' advance() calls. All
 * cross-endpoint interaction is mediated by the latency-buffered token
 * channels, so an endpoint that only touches its own state (every
 * endpoint in this code base) needs no synchronization.
 *
 * Activity: the fabric calls advance() only in rounds where a flit
 * arrives on some port or nextActivity() falls before the window end
 * (see the file comment). In every other round the endpoint is treated
 * as having emitted empty batches, and the next advance() may start
 * many windows after the last one ended. The default nextActivity() of
 * 0 means "always busy". A subclass that keeps private pending work —
 * anything that would put a flit on a link or change its state without
 * an input flit — must override nextActivity() to report it, or make
 * it return 0 while such work exists.
 */
class TokenEndpoint
{
  public:
    virtual ~TokenEndpoint() = default;

    /** Number of link ports on this endpoint. */
    virtual uint32_t numPorts() const = 0;

    /** Human-readable name for diagnostics. */
    virtual std::string name() const = 0;

    /**
     * Advance `window` target cycles.
     * @param window_start first cycle of the window
     * @param window number of cycles to advance
     * @param in one input batch per port (covering the *link arrival*
     *           cycles of this window; the fabric accounts for latency)
     * @param out one pre-sized empty output batch per port to fill
     */
    virtual void advance(Cycles window_start, Cycles window,
                         const std::vector<const TokenBatch *> &in,
                         std::vector<TokenBatch> &out) = 0;

    /**
     * Earliest cycle at which this endpoint has self-started work: an
     * event due, a flit queued for transmit. kNoCycle means nothing is
     * pending. Read on the driving thread after each advance and at
     * the start of run(), so it must not change while the endpoint is
     * not advanced. The default, 0, means "always busy", so the
     * endpoint is never skipped.
     */
    virtual Cycles nextActivity() const { return 0; }

    /**
     * Move the clock of an endpoint the fabric skipped forward to
     * @p cycle, as if it had advanced through empty windows. Called on
     * the driving thread only, and only with nothing due before
     * @p cycle: when run() returns, and before an observer takes the
     * endpoint down. The default does nothing.
     */
    virtual void idleTo(Cycles cycle) { (void)cycle; }

    // ---- Sliced advance (optional) -----------------------------------
    //
    // A big endpoint (a 32-port switch) is one advance() unit and can
    // dominate a parallel round. An endpoint may instead split each
    // round into independent slices: the fabric then drives it as
    //
    //   advanceBegin   (one worker: the serial prologue, e.g. ingress
    //                   and classification)
    //   advanceSlice x advanceSliceCount()  (workers, concurrently;
    //                   slices must touch disjoint state)
    //   advanceMerge   (driving thread, in step order, before commit:
    //                   fold per-slice scratch into shared state)
    //
    // and never calls advance(). The begin phase of every sliced
    // endpoint runs to completion (pool barrier) before any slice runs.
    // Because slices share no mutable state and all folding happens in
    // step order on the driving thread, results and telemetry stay
    // byte-identical to the monolithic path for any worker count.

    /** Number of independent slices this endpoint splits a round into;
     *  1 (the default) means the plain advance() path. Must be stable
     *  while the endpoint is registered with a fabric. */
    virtual uint32_t advanceSliceCount() const { return 1; }

    /** Serial prologue of a sliced round (single worker). */
    virtual void advanceBegin(Cycles window_start, Cycles window,
                              const std::vector<const TokenBatch *> &in,
                              std::vector<TokenBatch> &out);

    /** One concurrent slice; `slice` < advanceSliceCount(). */
    virtual void advanceSlice(uint32_t slice, Cycles window_start,
                              Cycles window,
                              const std::vector<const TokenBatch *> &in,
                              std::vector<TokenBatch> &out);

    /** Driving-thread epilogue: fold slice scratch into shared state. */
    virtual void advanceMerge(Cycles window_start, Cycles window,
                              std::vector<TokenBatch> &out);
};

/**
 * Hook interface for fault injection and health monitoring (src/fault).
 * All callbacks default to no-ops; a fabric with no observers — or only
 * no-op observers — simulates bit-identically to one without the hooks.
 *
 * Callback order within a round:
 *   onRoundStart -> per endpoint: endpointDown? -> [input anomalies]
 *   -> skip notification for down endpoints -> advance brackets
 *   -> per port: onTransmit -> [output anomalies] -> onRoundEnd
 * Observers fire in registration order; endpointDown answers are OR-ed.
 * An attached observer makes the fabric visit every endpoint every
 * round, so endpointDown is asked of every endpoint every round and
 * onTransmit fires for every batch, quiet endpoints included
 * (TokenFabric file comment); only the advance and slice brackets are
 * skipped for them.
 *
 * Threading contract: every callback fires on the fabric's driving
 * thread, in an order independent of the worker count, EXCEPT
 * onAdvanceStart/onAdvanceEnd, which fire on whichever worker advances
 * the endpoint and may run concurrently across endpoints when parallel
 * execution is enabled (TokenFabric::setParallelHosts). Implementations
 * of those two hooks must be thread-safe; for one endpoint the pair is
 * always called on the same thread, in order.
 */
class FabricObserver
{
  public:
    /** Anomaly classes the monitored fabric can recover from. */
    enum class Anomaly
    {
        BadLength,        //!< endpoint produced a wrong-length batch
        NonContiguous,    //!< batch does not extend the token stream
        StaleBatch,       //!< popped batch not for the current window
        ChannelUnderflow, //!< input channel had no batch ready
    };

    virtual ~FabricObserver() = default;

    /**
     * Called once from TokenFabric::addObserver with the fabric the
     * observer was just attached to. Observers that keep per-endpoint
     * state (e.g. the host profiler's advance timers) size it here so
     * no callback has to grow containers from a worker thread.
     */
    virtual void onAttach(TokenFabric &fabric) { (void)fabric; }

    /** Called once at the start of every round. */
    virtual void onRoundStart(Cycles round_start, uint64_t round)
    {
        (void)round_start;
        (void)round;
    }

    /**
     * True when endpoint @p endpoint_idx must not run this round: the
     * fabric discards its inputs and emits empty token batches on its
     * behalf, keeping the rest of the cluster cycle-exact.
     * Must depend only on (endpoint_idx, round_start) and state settled
     * before the round — the fabric may ask before stepping anything.
     */
    virtual bool endpointDown(size_t endpoint_idx, Cycles round_start)
    {
        (void)endpoint_idx;
        (void)round_start;
        return false;
    }

    /** Notification that a down endpoint was skipped this round. */
    virtual void onEndpointSkipped(size_t endpoint_idx, Cycles round_start)
    {
        (void)endpoint_idx;
        (void)round_start;
    }

    /**
     * Bracketing hooks around an endpoint's advance() call, fired only
     * when the endpoint actually runs: not when it is down, and not
     * when it is quiet (TokenFabric file comment).
     * Host-time profilers (src/telemetry) hang scoped timers here to
     * attribute wall-clock to switch ticks vs blade ticks without
     * touching the endpoints themselves.
     *
     * These two hooks are the only callbacks that may fire concurrently
     * from worker threads (see the class comment); keep them
     * thread-safe and free of target-visible side effects.
     */
    virtual void onAdvanceStart(size_t endpoint_idx, Cycles round_start)
    {
        (void)endpoint_idx;
        (void)round_start;
    }

    virtual void onAdvanceEnd(size_t endpoint_idx, Cycles round_start)
    {
        (void)endpoint_idx;
        (void)round_start;
    }

    /** `slice` value passed to the slice brackets for the serial
     *  advanceBegin() prologue of a sliced endpoint. */
    static constexpr int32_t kBeginSlice = -1;

    /**
     * Bracketing hooks around one phase of a *sliced* endpoint's round
     * (see TokenEndpoint::advanceSliceCount). Sliced endpoints fire
     * these instead of onAdvanceStart/onAdvanceEnd — their phases run
     * concurrently, so a single per-endpoint bracket would be racy.
     * Same threading contract as onAdvanceStart/End: may fire from any
     * worker, concurrently across (endpoint, slice) pairs; for one
     * (endpoint, slice) the pair is called on one thread, in order.
     */
    virtual void onSliceStart(size_t endpoint_idx, int32_t slice,
                              Cycles round_start)
    {
        (void)endpoint_idx;
        (void)slice;
        (void)round_start;
    }

    virtual void onSliceEnd(size_t endpoint_idx, int32_t slice,
                            Cycles round_start)
    {
        (void)endpoint_idx;
        (void)slice;
        (void)round_start;
    }

    /**
     * Mutate an outbound batch before it enters its channel. Called for
     * every produced batch, including the empty ones emitted on behalf
     * of down endpoints (so e.g. delayed payload can still drain).
     */
    virtual void onTransmit(size_t channel_idx, TokenBatch &batch)
    {
        (void)channel_idx;
        (void)batch;
    }

    /**
     * A token-protocol violation was detected at @p endpoint_idx /
     * @p port. Return true to recover: the fabric substitutes a
     * well-formed batch (empty on the output side, restamped on the
     * input side) and continues. Return false to abort as before.
     */
    virtual bool onAnomaly(Anomaly kind, size_t endpoint_idx, uint32_t port,
                           size_t channel_idx, Cycles round_start,
                           const TokenBatch &batch)
    {
        (void)kind;
        (void)endpoint_idx;
        (void)port;
        (void)channel_idx;
        (void)round_start;
        (void)batch;
        return false;
    }

    /** Called once at the end of every round. */
    virtual void onRoundEnd(Cycles round_start, uint64_t round)
    {
        (void)round_start;
        (void)round;
    }
};

/**
 * Transport hook for links whose far end lives in another OS process
 * (net/remote). The fabric calls onTxBatch once per remote output port
 * per round (driving thread, commit phase, step order) with the batch
 * and its *production* start cycle, and onRoundComplete after every
 * round's commits and onRoundEnd observers. onRoundComplete is the
 * distributed round barrier: it must flush the round's outbound
 * batches, wait for every peer's matching round, and push the received
 * batches into their RX channels (TokenFabric::remoteRxChannel) before
 * returning — the next round's prepare phase pops them.
 */
class RemoteRoundHook
{
  public:
    virtual ~RemoteRoundHook() = default;

    /** One batch produced for remote link @p link_id this round. The
     *  batch is borrowed: copy or serialize before returning. */
    virtual void onTxBatch(uint32_t link_id, const TokenBatch &batch) = 0;

    /** Round @p round (starting at cycle @p round_start) committed
     *  locally; barrier with the peer shards. */
    virtual void onRoundComplete(uint64_t round, Cycles round_start) = 0;
};

/**
 * Owns the endpoints' wiring and drives the decoupled simulation in
 * rounds. Mirrors FireSim's distributed runner, with in-process queues
 * standing in for PCIe/shared-memory transport (the modeled host
 * costs of those transports live in src/host). Links to endpoints in
 * *other processes* are carried by a socket transport instead
 * (connectRemote + net/remote): same latency-sized batches, same
 * round discipline, byte-identical results.
 */
class TokenFabric
{
  public:
    /** Register an endpoint; the fabric does not take ownership. */
    void addEndpoint(TokenEndpoint *endpoint);

    /**
     * Create the two channels of a full-duplex link between
     * (a, port_a) and (b, port_b) with the given latency in cycles.
     */
    void connect(TokenEndpoint *a, uint32_t port_a, TokenEndpoint *b,
                 uint32_t port_b, Cycles latency);

    /**
     * Connect (local, port) to an endpoint in *another process*. Only
     * the receive direction gets a TokenChannel here (seeded with
     * latency cycles of empty tokens, exactly like a local link); the
     * transmit direction has no channel — each round's produced batch
     * is handed to the RemoteRoundHook (setRemoteHook) instead, which
     * carries it to the peer shard's matching RX channel. The two
     * directions carry distinct global, topology-derived ids:
     * @p rx_link_id labels tokens *arriving* here (it keys
     * remoteRxChannel() and must match what the peer transmits with),
     * @p tx_link_id labels tokens this port *produces* (the hook and
     * the wire frames carry it; it is the peer's rx id for this link).
     * @p peer_label names the far end in diagnostics. The timing
     * contract is unchanged: a flit produced at cycle M arrives at
     * M + latency. Because the fabric quantum never exceeds the link
     * latency, a batch produced in round R is not popped before round
     * R+1 — one round of pipeline slack for the socket transport, with
     * no same-round blocking.
     */
    void connectRemote(TokenEndpoint *local, uint32_t port, Cycles latency,
                       uint32_t rx_link_id, uint32_t tx_link_id,
                       const std::string &peer_label);

    /**
     * The RX channel created by connectRemote() for @p link_id, or
     * null. The transport pushes received batches here (production
     * start cycle; push() restamps to arrival). Requires finalize().
     */
    TokenChannel *remoteRxChannel(uint32_t link_id) const;

    /**
     * Attach the transport hook serving every connectRemote() link.
     * Required before run() when remote links exist; must not change
     * mid-run. The fabric does not take ownership.
     */
    void setRemoteHook(RemoteRoundHook *hook);

    /**
     * Switch to purely functional network simulation (paper Section
     * VII: the far end of the performance/accuracy curve, where
     * "individual simulated nodes run at 150+ MHz while still
     * supporting the transport of Ethernet frames"). Every link's
     * latency is coarsened to @p window cycles, so endpoints advance
     * in large decoupled windows and host rounds shrink by
     * window/latency; frame *delivery* remains exact, frame *timing*
     * is quantized to the window. Call before finalize().
     */
    void setFunctionalMode(Cycles window);

    /**
     * Advance endpoints with @p hosts-way parallelism inside each
     * round, modeling the paper's one-blade-per-FPGA scale-out on host
     * threads. 0 and 1 both mean single-threaded execution (no pool is
     * created); the round phase structure and all results are
     * byte-identical for every value. Must not be called mid-run; may
     * be called before or after finalize() and between run() calls.
     */
    void setParallelHosts(unsigned hosts);

    /** Configured intra-round parallelism (>= 1). */
    unsigned parallelHosts() const { return parHosts; }

    /**
     * Wall-clock per-worker load accounting for the parallel round
     * loop, reset whenever the pool width changes. Meaningful only
     * after run() with parallelHosts >= 2; never part of the
     * deterministic telemetry surface.
     */
    const SchedTelemetry &schedTelemetry() const { return schedTel; }

    /** Advance units in the main pass (slices + monolithic advances);
     *  equals endpointCount() when nothing is sliced. Requires
     *  finalize(). */
    size_t advanceUnitCount() const { return mainUnits.size(); }

    /**
     * Finalize wiring: checks that every port is connected, computes the
     * round quantum, and seeds every channel with its latency's worth of
     * empty tokens. Must be called exactly once before run().
     */
    void finalize();

    /** Advance the whole target by @p cycles (rounded up to rounds). */
    void run(Cycles cycles);

    /** Current target cycle (all endpoints have advanced this far). */
    Cycles now() const { return curCycle; }

    /** Number of completed rounds, skipped ones included. */
    uint64_t round() const { return roundCount; }

    /** Round quantum in cycles (min link latency). */
    Cycles quantum() const { return quant; }

    /** Total batches moved across all channels so far (host traffic):
     *  one per output port per round, implied empty batches and
     *  skipped rounds included. */
    uint64_t batchesMoved() const { return batchCount; }

    /**
     * Flit-storage allocations the round loop could not serve from the
     * links' spare storage (TokenChannel::takeStorage). Grows only
     * while batch capacities are warming up; flat in the steady state
     * (asserted in tests/net).
     */
    uint64_t batchAllocations() const;

    /**
     * Attach a fault-injection / health-monitoring observer. Callbacks
     * fire in registration order. May be called after finalize() (the
     * observers typically need the finalized channel list to resolve
     * their targets); must not be called mid-run. The fabric does not
     * take ownership.
     */
    void addObserver(FabricObserver *observer);

    // ---- Introspection for observers and diagnostics ----------------

    size_t endpointCount() const { return endpoints.size(); }
    TokenEndpoint &endpointAt(size_t idx) const
    {
        return *endpoints.at(idx).endpoint;
    }
    /** Index of the endpoint named @p name, or -1. */
    int endpointIndexOf(const std::string &name) const;

    size_t channelCount() const { return channels.size(); }
    TokenChannel &channelAt(size_t idx) const { return *channels.at(idx); }
    /**
     * True when channel @p idx is the RX half of a remote link. Such a
     * channel is one batch short at onRoundEnd time: its refill
     * arrives in the round barrier (RemoteRoundHook::onRoundComplete),
     * which runs after the observers. Health monitors use this to
     * adjust their occupancy expectations.
     */
    bool channelIsRemoteRx(size_t idx) const;
    /**
     * Index of the channel carrying tokens *out of* port @p port of
     * endpoint @p endpoint_idx, or -1. Requires finalize().
     */
    int txChannelOf(size_t endpoint_idx, uint32_t port) const;

    /**
     * Testing hook: permute the endpoint stepping order. Results must
     * not change (decoupled determinism); property tests rely on this.
     */
    void setStepOrder(std::vector<size_t> order);

    /**
     * Serialize the fabric's round state: the quantum (verified on
     * restore), cycle and round count. Requires finalize() and a round
     * boundary (now() a multiple of quantum). The channel contents and the
     * host-local batch counter are not included: snapshots
     * (manager/checkpoint) store every channel under its own global
     * link name, so a restore under any ShardPlan re-homes channels
     * individually.
     */
    void snapshotSave(Serializer &s) const;
    void snapshotRestore(Deserializer &d, SnapshotErrors &err);

  private:
    struct Link
    {
        TokenEndpoint *a = nullptr;
        uint32_t portA = 0;
        TokenEndpoint *b = nullptr;
        uint32_t portB = 0;
        Cycles latency = 0;
    };

    /** A half-link whose far end lives in another shard process. */
    struct RemoteLink
    {
        TokenEndpoint *local = nullptr;
        uint32_t port = 0;
        Cycles latency = 0;
        uint32_t rxLinkId = 0; //!< id of tokens arriving on this port
        uint32_t txLinkId = 0; //!< id of tokens produced by this port
        std::string peerLabel;
    };

    struct EndpointState
    {
        TokenEndpoint *endpoint = nullptr;
        // Per-port channels; in[i] feeds port i, out[i] drains it.
        std::vector<TokenChannel *> in;
        std::vector<TokenChannel *> out;
        // Index into `channels` of in[i] / out[i], set at finalize()
        // so observer callbacks never search for a channel.
        std::vector<uint32_t> inChan;
        std::vector<uint32_t> outChan;
        // Endpoint index consuming out[i] (local ports only), whose
        // wake a flit-carrying push lowers.
        std::vector<uint32_t> outPeer;

        // Round-persistent buffers, sized once at finalize(). `popped`
        // holds the round's input batches, `inPtrs` aliases them for
        // the advance() signature, `outs` the batches the endpoint
        // fills.
        // Only the worker stepping this endpoint touches them during
        // the advance phase; the driving thread refills them between
        // phases.
        std::vector<TokenBatch> popped;
        std::vector<const TokenBatch *> inPtrs;
        std::vector<TokenBatch> outs;
        // Per-port remote link id when the TX side is carried by the
        // RemoteRoundHook instead of a TokenChannel; -1 for local
        // ports (out[p] set) and for the RX-only remote direction.
        std::vector<int64_t> remoteOut;
        uint32_t slices = 1; //!< cached advanceSliceCount()
        bool down = false;   //!< observers parked it this round
        /** Visited this round but not advanced: its empty inputs are
         *  forwarded as its outputs. */
        bool quiet = false;
        /** Advanced this round (visited, neither down nor quiet). */
        bool runs = false;
    };

    /**
     * One schedulable piece of a round's advance phase: a whole
     * endpoint's advance() (slice == kWholeEndpoint), a sliced
     * endpoint's serial prologue (FabricObserver::kBeginSlice), or one
     * of its slices. Built at finalize(); the worker pool stripes each
     * pass's list round-robin.
     */
    struct AdvanceUnit
    {
        static constexpr int32_t kWholeEndpoint = -2;
        static_assert(kWholeEndpoint != FabricObserver::kBeginSlice);
        uint32_t endpoint = 0;
        int32_t slice = kWholeEndpoint;
    };

    EndpointState &stateFor(TokenEndpoint *endpoint);

    /**
     * Report @p kind on channel @p chan_idx to the observers; returns
     * true when some observer recovered it (never, with none
     * attached). The caller aborts with the channel's label otherwise.
     */
    bool reportAnomaly(FabricObserver::Anomaly kind, size_t endpoint_idx,
                       uint32_t port, size_t chan_idx,
                       const TokenBatch &batch);

    /** Endpoint @p idx's wake cycle: its nextActivity() or the arrival
     *  of the first flit stored in its inputs, whichever is earlier. */
    Cycles wakeOf(size_t idx) const;

    // ---- The three round phases (see the file comment) ---------------
    /** Driving thread: down-verdict, quiet verdict, input pops,
     *  output-batch reset. */
    void prepareEndpoint(size_t idx);
    /** True when every input of @p state holds an empty batch for the
     *  current window. */
    bool inputsQuiet(const EndpointState &state) const;
    /** Single-threaded phase 2: whole endpoint, slices inline. */
    void advanceEndpoint(size_t idx);
    /** Driving thread: slice merge, transmit observers, pushes. */
    void commitEndpoint(size_t idx);
    /** Commit one produced batch on port @p port of endpoint @p idx:
     *  transmit observers and push, or the remote hook. Returns true
     *  when the batch's flit storage moved into its channel. */
    bool transmit(size_t idx, uint32_t port, TokenBatch &batch);

    // Phase-2 building blocks shared by the single-threaded path and
    // the pool's unit bodies (any worker thread).
    void advanceMonolithic(size_t idx);
    void advanceBeginPhase(size_t idx);
    void advanceSlicePhase(size_t idx, uint32_t slice);
    /** Run one unit (skipped when its endpoint does not run). */
    void execUnit(const AdvanceUnit &unit);
    /** Parallel phase 2 for one pass: worker w runs units w, w+W, ...,
     *  timing each into the worker's busy time. */
    void dispatchUnits(const std::vector<AdvanceUnit> &units);

    Cycles functionalWindow = 0; //!< 0 = cycle-exact timing
    std::vector<Link> pendingLinks;
    std::vector<RemoteLink> pendingRemote;
    // link id -> RX channel (non-owning; the channel lives in
    // `channels` like any other so observers can watch it).
    std::vector<std::pair<uint32_t, TokenChannel *>> remoteRx;
    RemoteRoundHook *remoteHook = nullptr;
    std::vector<EndpointState> endpoints;
    /** Per endpoint: its wake cycle (wakeOf), kept current by every
     *  commit and every flit-carrying push. Dense, so the per-round
     *  scan for due endpoints stays in cache. */
    std::vector<Cycles> wake;
    /** Per endpoint: the cycle up to which its clock is accounted for
     *  (advanced, down, or moved with idleTo). Lags while the endpoint
     *  is skipped. */
    std::vector<Cycles> settled;
    /** The endpoints visited this round, in step order. */
    std::vector<size_t> visit;
    /** With observers or a remote hook attached, every endpoint is
     *  visited every round (set at run() start). */
    bool everyRound = false;
    /** Batches one round moves: one per output port. */
    uint64_t batchesPerRound = 0;
    std::vector<std::unique_ptr<TokenChannel>> channels;
    size_t firstRemoteRx = 0; //!< remote RX channels follow local pairs
    std::vector<FabricObserver *> observers;
    std::vector<size_t> stepOrder;
    std::unique_ptr<ThreadPool> workers; //!< null when single-threaded
    unsigned parHosts = 1;
    // Advance-unit lists (finalize). The begin pass holds sliced
    // endpoints' serial prologues; the main pass holds every slice plus
    // every monolithic advance. Two passes ensure a sliced endpoint's
    // ingress completes before its slices.
    std::vector<AdvanceUnit> beginUnits;
    std::vector<AdvanceUnit> mainUnits;
    SchedTelemetry schedTel;
    Cycles quant = 0;
    Cycles curCycle = 0;
    uint64_t roundCount = 0;
    uint64_t batchCount = 0;
    bool finalized = false;
    bool running = false;
};

} // namespace firesim

#endif // FIRESIM_NET_FABRIC_HH
