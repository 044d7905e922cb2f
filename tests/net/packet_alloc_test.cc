/**
 * @file
 * Heap allocations on the packet path: a unicast frame crossing one or
 * two switches into a server blade.
 *
 * Each switch hop reassembles the frame in a buffer that persists from
 * frame to frame, copies it out once into an exactly sized frame and
 * moves that through the switching step into the output queue; the
 * blade hands each arriving flit to its NIC through an event whose
 * closure fits the event queue's inline callback storage. So after
 * warm-up the only frame-sized allocations are one per switch hop plus
 * the NIC's own reassembly, and nothing scales with the frame's flit
 * count. This test replaces the global operator new to count heap
 * allocations (and pick out the frame-sized ones) inside a measurement
 * window, which is why it lives in its own test binary
 * (test_packet_alloc) and must not share a process with other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "net/eth.hh"
#include "net/fabric.hh"
#include "node/server_blade.hh"
#include "switchmodel/switch.hh"

namespace
{

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frameAllocs{0};
std::atomic<bool> g_counting{false};
/** Size of the frame under test: allocations of exactly this size are
 *  counted as frame buffers. */
std::atomic<std::size_t> g_frameBytes{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        if (size == g_frameBytes.load(std::memory_order_relaxed))
            g_frameAllocs.fetch_add(1, std::memory_order_relaxed);
    }
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

constexpr Cycles kLatency = 256;
/** Cycles between frame starts: room for the longest frame's flits
 *  and the NIC's receive DMA, so no queue ever backs up. */
constexpr Cycles kFrameGap = 1024;

/** Emits copies of one frame, a frame every kFrameGap cycles, without
 *  allocating: the flits come from a FrameSerializer over the frame. */
class FrameSource : public TokenEndpoint
{
  public:
    explicit FrameSource(EthFrame f) : frame(std::move(f)) {}

    uint32_t numPorts() const override { return 1; }
    std::string name() const override { return "source"; }

    void send(uint64_t frames) { remaining += frames; }

    void
    advance(Cycles window_start, Cycles window,
            const std::vector<const TokenBatch *> &in,
            std::vector<TokenBatch> &out) override
    {
        (void)in;
        for (Cycles c = window_start; c < window_start + window; ++c) {
            if (!ser && remaining > 0 && c >= nextStart) {
                ser.emplace(frame);
                nextStart = c + kFrameGap;
            }
            if (!ser)
                continue;
            Flit flit = ser->next();
            flit.offset = static_cast<uint32_t>(c - window_start);
            out[0].push(flit);
            if (ser->done()) {
                ser.reset();
                --remaining;
            }
        }
    }

  private:
    EthFrame frame;
    std::optional<FrameSerializer> ser;
    uint64_t remaining = 0;
    Cycles nextStart = 0;
};

/** source -> sw0 [-> sw1] -> blade, every switch forwarding the
 *  blade's MAC out of its port 1. The blade keeps eight receive
 *  buffers posted, reposting each one as its completion is popped. */
struct Path
{
    static constexpr uint64_t kBladeMac = 0x42;

    FrameSource source;
    std::vector<std::unique_ptr<Switch>> switches;
    std::unique_ptr<ServerBlade> blade;
    TokenFabric fabric;

    Path(uint32_t hops, uint32_t payload_bytes)
        : source(EthFrame(MacAddr(kBladeMac), MacAddr(0x1), EtherType::Raw,
                          std::vector<uint8_t>(payload_bytes, 0x5a)))
    {
        BladeConfig bc;
        bc.name = "blade";
        bc.memBytes = 16 * MiB;
        bc.mac = MacAddr(kBladeMac);
        blade = std::make_unique<ServerBlade>(bc);
        Nic &nic = blade->nic();
        for (uint64_t r = 0; r < 8; ++r)
            nic.pushRecvRequest(0x100000 + r * 0x1000);
        nic.setInterruptHandler([&nic] {
            while (auto comp = nic.popRecvComp())
                nic.pushRecvRequest(comp->addr);
        });

        fabric.addEndpoint(&source);
        TokenEndpoint *prev = &source;
        uint32_t prev_port = 0;
        for (uint32_t h = 0; h < hops; ++h) {
            SwitchConfig sc;
            sc.name = csprintf("sw%u", h);
            sc.ports = 2;
            switches.push_back(std::make_unique<Switch>(sc));
            switches.back()->addMacEntry(MacAddr(kBladeMac), 1);
            fabric.addEndpoint(switches.back().get());
            fabric.connect(prev, prev_port, switches.back().get(), 0,
                           kLatency);
            prev = switches.back().get();
            prev_port = 1;
        }
        fabric.addEndpoint(blade.get());
        fabric.connect(prev, prev_port, blade.get(), 0, kLatency);
        fabric.finalize();
    }

    /** Send @p frames frames and run until all have been received. */
    void
    deliver(uint64_t frames)
    {
        uint64_t before = blade->nic().stats().framesReceived.value();
        source.send(frames);
        fabric.run(frames * kFrameGap + 8 * kLatency);
        ASSERT_EQ(blade->nic().stats().framesReceived.value() - before,
                  frames);
    }
};

struct Counts
{
    uint64_t frameBuffers; //!< frame-sized allocations
    uint64_t other;        //!< every other allocation
};

/** Warm a fresh path up, then count the allocations of @p frames more
 *  frames of @p payload_bytes each over @p hops switches. */
Counts
measure(uint32_t hops, uint32_t payload_bytes, uint64_t frames)
{
    Path path(hops, payload_bytes);
    path.deliver(32);
    g_frameBytes.store(payload_bytes + kEthHeaderBytes);
    g_allocs.store(0);
    g_frameAllocs.store(0);
    g_counting.store(true);
    path.deliver(frames);
    g_counting.store(false);
    Counts c{g_frameAllocs.load(), g_allocs.load() - g_frameAllocs.load()};
    std::printf("[packet-alloc] hops=%u frame=%u B: %llu frames, %llu "
                "frame buffers, %llu other allocations\n",
                hops, payload_bytes + kEthHeaderBytes,
                (unsigned long long)frames,
                (unsigned long long)c.frameBuffers,
                (unsigned long long)c.other);
    return c;
}

TEST(PacketAlloc, OneFrameBufferPerSwitchHopAndNonePerFlit)
{
    constexpr uint64_t kFrames = 64;
    for (uint32_t hops : {1u, 2u}) {
        // 2-flit frames against 175-flit frames: same frame count,
        // 87x the flits.
        Counts short_frames = measure(hops, 2, kFrames);
        Counts long_frames = measure(hops, 1386, kFrames);
        // One reassembled buffer per switch hop plus the NIC's own.
        EXPECT_EQ(short_frames.frameBuffers, kFrames * (hops + 1));
        EXPECT_EQ(long_frames.frameBuffers, kFrames * (hops + 1));
        // Nothing per flit: the rest is the same for 2- and 175-flit
        // frames, and is std::deque node turnover in the switch and
        // NIC queues (one node per several frames), not per frame.
        EXPECT_EQ(long_frames.other, short_frames.other);
        EXPECT_LT(short_frames.other, kFrames);
    }
}

} // namespace
} // namespace firesim
