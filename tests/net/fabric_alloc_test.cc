/**
 * @file
 * Steady-state zero-allocation test for the token fabric's round loop.
 *
 * The fabric recycles flit storage round-to-round (each TokenChannel's
 * spare storage and its ring of stored batches), so once batch
 * capacities have warmed up, moving tokens allocates nothing —
 * sequentially and with a worker pool, with every endpoint visited
 * each round and with sleeping endpoints left alone (no observer).
 * This test replaces the global operator new to
 * count heap allocations inside a measurement window, which is why it
 * lives in its own test binary (test_fabric_alloc) and must not share
 * a process with other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "net/fabric.hh"

namespace
{

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace firesim
{
namespace
{

/**
 * A minimal two-port endpoint emitting a fixed flit pattern on both
 * ports every window and checksumming everything it receives — steady
 * traffic with no per-frame bookkeeping, so any allocation in the
 * measurement window is the fabric's.
 */
class SteadyEndpoint : public TokenEndpoint
{
  public:
    explicit SteadyEndpoint(std::string name, uint32_t flits_per_batch)
        : label(std::move(name)), flitsPerBatch(flits_per_batch)
    {}

    uint32_t numPorts() const override { return 2; }
    std::string name() const override { return label; }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            std::vector<TokenBatch> &out) override
    {
        for (const TokenBatch *batch : in)
            for (const Flit &f : batch->flits)
                rxSum += batch->absCycle(f) + f.data[0];
        for (TokenBatch &batch : out) {
            for (uint32_t i = 0; i < flitsPerBatch; ++i) {
                Flit f;
                f.offset = i * static_cast<uint32_t>(window) /
                           (flitsPerBatch + 1);
                f.size = 8;
                f.last = (i + 1 == flitsPerBatch);
                f.data[0] = static_cast<uint8_t>(window_start + i);
                batch.push(f);
            }
        }
    }

    uint64_t rxSum = 0;

  private:
    std::string label;
    uint32_t flitsPerBatch;
};

/**
 * A two-port endpoint that only emits every @p period-th window and
 * reports that schedule through nextActivity(), so the fabric skips it
 * whenever nothing arrives in between.
 */
class PulseEndpoint : public TokenEndpoint
{
  public:
    PulseEndpoint(std::string name, uint32_t period)
        : label(std::move(name)), period(period)
    {}

    uint32_t numPorts() const override { return 2; }
    std::string name() const override { return label; }
    Cycles nextActivity() const override { return nextPulse; }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            std::vector<TokenBatch> &out) override
    {
        ++advances;
        for (const TokenBatch *batch : in)
            for (const Flit &f : batch->flits)
                rxSum += batch->absCycle(f) + f.data[0];
        if (window_start < nextPulse)
            return;
        nextPulse = window_start + period * window;
        for (TokenBatch &batch : out) {
            for (uint32_t i = 0; i < 4; ++i) {
                Flit f;
                f.offset = i;
                f.size = 8;
                f.data[0] = static_cast<uint8_t>(window_start + i);
                batch.push(f);
            }
        }
    }

    uint64_t rxSum = 0;
    uint64_t advances = 0;

  private:
    std::string label;
    Cycles period;
    Cycles nextPulse = 0;
};

/** No-op observer: forces the fabric onto its monitored code path. */
class NullObserver : public FabricObserver
{
};

struct Rig
{
    std::vector<std::unique_ptr<SteadyEndpoint>> eps;
    TokenFabric fabric;
    NullObserver watcher;

    explicit Rig(bool with_observer)
    {
        // Four endpoints in a ring: ep[i] port1 -> ep[i+1] port0.
        for (int i = 0; i < 4; ++i) {
            eps.push_back(std::make_unique<SteadyEndpoint>(
                csprintf("s%d", i), 5 + i));
            fabric.addEndpoint(eps.back().get());
        }
        for (int i = 0; i < 4; ++i)
            fabric.connect(eps[i].get(), 1, eps[(i + 1) % 4].get(), 0,
                           128);
        if (with_observer)
            fabric.addObserver(&watcher);
        fabric.finalize();
    }
};

void
expectSteadyStateZeroAllocs(bool with_observer, unsigned hosts)
{
    Rig rig(with_observer);
    rig.fabric.setParallelHosts(hosts);

    // Warm-up: circulate enough rounds for every flit vector's capacity
    // and the recycling pool to reach steady state (pool creation and
    // worker spawning also land here).
    rig.fabric.run(rig.fabric.quantum() * 64);
    uint64_t misses_before = rig.fabric.batchAllocations();

    g_allocs.store(0);
    g_counting.store(true);
    rig.fabric.run(rig.fabric.quantum() * 256);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "heap allocations in the steady-state round loop (hosts="
        << hosts << ", observer=" << with_observer << ")";
    EXPECT_EQ(rig.fabric.batchAllocations(), misses_before)
        << "flit-pool misses kept growing after warm-up";
    // The traffic actually flowed.
    for (auto &ep : rig.eps)
        EXPECT_GT(ep->rxSum, 0u);
}

TEST(FabricAlloc, SequentialSteadyStateAllocatesNothing)
{
    expectSteadyStateZeroAllocs(false, 1);
}

TEST(FabricAlloc, MonitoredSteadyStateAllocatesNothing)
{
    expectSteadyStateZeroAllocs(true, 1);
}

TEST(FabricAlloc, ParallelSteadyStateAllocatesNothing)
{
    expectSteadyStateZeroAllocs(false, 4);
}

TEST(FabricAlloc, ParallelMonitoredSteadyStateAllocatesNothing)
{
    expectSteadyStateZeroAllocs(true, 4);
}

void
expectMixedQuietSteadyStateAllocatesNothing(unsigned hosts, bool observe)
{
    // A ring of pulsing endpoints with co-prime periods (each quiet in
    // the rounds where neither neighbour's pulse reaches it) plus a
    // pair that never has anything to do: quiet and active rounds
    // interleave in every steady-state pattern. Unobserved, sleeping
    // endpoints are not visited and all-quiet rounds are skipped.
    std::vector<std::unique_ptr<PulseEndpoint>> eps;
    TokenFabric fabric;
    NullObserver watcher;
    const uint32_t periods[] = {3, 4, 5, 7};
    for (int i = 0; i < 4; ++i) {
        eps.push_back(std::make_unique<PulseEndpoint>(csprintf("p%d", i),
                                                      periods[i]));
        fabric.addEndpoint(eps.back().get());
    }
    for (int i = 0; i < 4; ++i)
        fabric.connect(eps[i].get(), 1, eps[(i + 1) % 4].get(), 0, 128);
    auto idleA = std::make_unique<PulseEndpoint>("idleA", 1u << 20);
    auto idleB = std::make_unique<PulseEndpoint>("idleB", 1u << 20);
    fabric.addEndpoint(idleA.get());
    fabric.addEndpoint(idleB.get());
    fabric.connect(idleA.get(), 0, idleB.get(), 1, 128);
    fabric.connect(idleA.get(), 1, idleB.get(), 0, 128);
    if (observe)
        fabric.addObserver(&watcher);
    fabric.finalize();
    fabric.setParallelHosts(hosts);

    // Warm-up spans several full periods of the pulse pattern
    // (lcm 420 rounds) so every capacity has been reached.
    fabric.run(fabric.quantum() * 1024);
    uint64_t misses_before = fabric.batchAllocations();
    uint64_t advances_before = 0;
    for (auto &ep : eps)
        advances_before += ep->advances;
    uint64_t idle_before = idleA->advances + idleB->advances;

    g_allocs.store(0);
    g_counting.store(true);
    fabric.run(fabric.quantum() * 420);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "heap allocations in the mixed quiet/active round loop "
           "(hosts="
        << hosts << ", observer=" << observe << ")";
    EXPECT_EQ(fabric.batchAllocations(), misses_before);
    // Vacuity: traffic flowed, the ring was skipped in some rounds,
    // and the idle pair (after its first pulse) in every round.
    uint64_t advances = 0;
    for (auto &ep : eps) {
        EXPECT_GT(ep->rxSum, 0u);
        advances += ep->advances;
    }
    EXPECT_GT(advances - advances_before, 0u);
    EXPECT_LT(advances - advances_before, 4u * 420u);
    EXPECT_EQ(idleA->advances + idleB->advances, idle_before);
}

TEST(FabricAlloc, MixedQuietSteadyStateAllocatesNothing)
{
    expectMixedQuietSteadyStateAllocatesNothing(1, true);
}

TEST(FabricAlloc, ParallelMixedQuietSteadyStateAllocatesNothing)
{
    expectMixedQuietSteadyStateAllocatesNothing(4, true);
}

TEST(FabricAlloc, SleepingEndpointsSteadyStateAllocatesNothing)
{
    expectMixedQuietSteadyStateAllocatesNothing(1, false);
}

TEST(FabricAlloc, ParallelSleepingEndpointsSteadyStateAllocatesNothing)
{
    expectMixedQuietSteadyStateAllocatesNothing(4, false);
}

TEST(FabricAlloc, PoolMissesAreBounded)
{
    // Misses can only occur while capacities warm up: strictly fewer
    // than one per (endpoint, port, round) even in round one, and the
    // count must be identical for sequential and parallel runs.
    Rig a(false);
    a.fabric.run(a.fabric.quantum() * 32);
    uint64_t seq = a.fabric.batchAllocations();

    Rig b(false);
    b.fabric.setParallelHosts(4);
    b.fabric.run(b.fabric.quantum() * 32);
    EXPECT_EQ(seq, b.fabric.batchAllocations());
    EXPECT_GT(seq, 0u); // cold start does miss
    EXPECT_LT(seq, 8u * 32u);
}

} // namespace
} // namespace firesim
