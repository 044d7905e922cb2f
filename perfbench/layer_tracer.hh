/**
 * @file
 * Outside-in per-layer host-time tracer for the repository benchmark.
 *
 * A FabricObserver that times every call the token fabric makes into an
 * endpoint (blade or switch) and the fabric's own round bookkeeping
 * around those calls, without touching the simulator: everything is
 * read from the observer brackets and from public counters.
 *
 * Per round it records one span tree in memory (round, and inside it
 * prepare / advance / commit, plus the gap to the next round, which
 * holds the remote flush and barrier of a sharded run) and writes the
 * spans as a Chrome trace_event file at exit. Per endpoint it
 * accumulates busy host nanoseconds into pre-sized, cache-line-aligned
 * slots, one per (endpoint, advance slice), so the concurrent advance
 * brackets of a parallel round never share a slot.
 */

#ifndef FIRESIM_PERFBENCH_LAYER_TRACER_HH
#define FIRESIM_PERFBENCH_LAYER_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/fabric.hh"

namespace perfbench
{

/** Flat metric map: name -> value, merged across shard ranks. */
using MetricMap = std::map<std::string, double>;

class LayerTracer : public firesim::FabricObserver
{
  public:
    /** @p expected_rounds pre-sizes the in-memory span log. */
    explicit LayerTracer(uint64_t expected_rounds);

    void onAttach(firesim::TokenFabric &fabric) override;
    void onRoundStart(firesim::Cycles round_start, uint64_t round) override;
    void onRoundEnd(firesim::Cycles round_start, uint64_t round) override;
    void onAdvanceStart(size_t endpoint_idx,
                        firesim::Cycles round_start) override;
    void onAdvanceEnd(size_t endpoint_idx,
                      firesim::Cycles round_start) override;
    void onSliceStart(size_t endpoint_idx, int32_t slice,
                      firesim::Cycles round_start) override;
    void onSliceEnd(size_t endpoint_idx, int32_t slice,
                    firesim::Cycles round_start) override;

    /** Add this rank's raw fabric, switch and blade timings to @p out. */
    void collect(MetricMap &out) const;

    /** Write the span log as Chrome trace_event JSON; false on error. */
    bool writeSpans(const std::string &path, int rank) const;

  private:
    enum class Kind : uint8_t { Blade, Switch, Other };

    /** One advance unit's timer. Written by at most one thread per
     *  round; read on the driving thread after the round's barrier. */
    struct alignas(64) Slot
    {
        uint64_t start = 0;
        uint64_t end = 0;
        uint64_t busy = 0;
    };

    struct RoundSpan
    {
        uint64_t start = 0;
        uint64_t advanceFirst = 0;
        uint64_t advanceLast = 0;
        uint64_t end = 0;
    };

    static uint64_t
    nowNs()
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    Slot &slotFor(size_t endpoint_idx, int32_t slice);

    unsigned threads = 1;
    std::vector<Kind> kinds;         //!< per endpoint
    std::vector<uint32_t> firstSlot; //!< per endpoint
    std::vector<uint32_t> slotCount; //!< per endpoint
    std::vector<Slot> slots;
    std::vector<RoundSpan> spans;
    uint64_t origin = 0;

    uint64_t roundStart = 0;
    uint64_t lastRoundEnd = 0;
    uint64_t roundNs = 0;
    uint64_t betweenRoundsNs = 0;
    uint64_t advanceSpanNs = 0;
    uint64_t advanceCoveredNs = 0;
    uint64_t busyNs = 0;
    uint64_t bladeMaxNs = 0;
};

} // namespace perfbench

#endif // FIRESIM_PERFBENCH_LAYER_TRACER_HH
