#include "layer_tracer.hh"

#include <algorithm>
#include <cstdio>

#include "node/server_blade.hh"
#include "switchmodel/switch.hh"

namespace perfbench
{

using firesim::Cycles;

LayerTracer::LayerTracer(uint64_t expected_rounds)
{
    spans.reserve(expected_rounds + 1);
}

void
LayerTracer::onAttach(firesim::TokenFabric &fab)
{
    threads = std::max(1u, fab.parallelHosts());
    size_t n = fab.endpointCount();
    kinds.assign(n, Kind::Other);
    firstSlot.assign(n, 0);
    slotCount.assign(n, 0);
    uint32_t total = 0;
    for (size_t i = 0; i < n; ++i) {
        firesim::TokenEndpoint &ep = fab.endpointAt(i);
        if (dynamic_cast<firesim::ServerBlade *>(&ep))
            kinds[i] = Kind::Blade;
        else if (dynamic_cast<firesim::Switch *>(&ep))
            kinds[i] = Kind::Switch;
        // A sliced endpoint brackets its serial prologue (slot 0) and
        // each slice (slots 1..N) separately; the rest use one slot.
        uint32_t slices = ep.advanceSliceCount();
        firstSlot[i] = total;
        slotCount[i] = slices > 1 ? slices + 1 : 1;
        total += slotCount[i];
    }
    slots.assign(total, Slot{});
    origin = nowNs();
}

LayerTracer::Slot &
LayerTracer::slotFor(size_t endpoint_idx, int32_t slice)
{
    uint32_t off = slice == kBeginSlice ? 0 : static_cast<uint32_t>(slice) + 1;
    return slots[firstSlot[endpoint_idx] + off];
}

void
LayerTracer::onRoundStart(Cycles, uint64_t)
{
    roundStart = nowNs();
    if (lastRoundEnd)
        betweenRoundsNs += roundStart - lastRoundEnd;
}

void
LayerTracer::onAdvanceStart(size_t endpoint_idx, Cycles)
{
    slots[firstSlot[endpoint_idx]].start = nowNs();
}

void
LayerTracer::onAdvanceEnd(size_t endpoint_idx, Cycles)
{
    Slot &s = slots[firstSlot[endpoint_idx]];
    s.end = nowNs();
    s.busy += s.end - s.start;
}

void
LayerTracer::onSliceStart(size_t endpoint_idx, int32_t slice, Cycles)
{
    slotFor(endpoint_idx, slice).start = nowNs();
}

void
LayerTracer::onSliceEnd(size_t endpoint_idx, int32_t slice, Cycles)
{
    Slot &s = slotFor(endpoint_idx, slice);
    s.end = nowNs();
    s.busy += s.end - s.start;
}

void
LayerTracer::onRoundEnd(Cycles, uint64_t)
{
    uint64_t end = nowNs();
    // The advance phase's barrier has published every worker's slot
    // writes to this (driving) thread. A slot ran this round iff its
    // start is inside the round; down endpoints leave stale slots.
    uint64_t first = UINT64_MAX, last = 0, round_busy = 0, blade_max = 0;
    for (size_t i = 0; i < kinds.size(); ++i) {
        uint64_t ep_busy = 0;
        for (uint32_t k = 0; k < slotCount[i]; ++k) {
            const Slot &s = slots[firstSlot[i] + k];
            if (s.start < roundStart || s.end < s.start)
                continue;
            first = std::min(first, s.start);
            last = std::max(last, s.end);
            ep_busy += s.end - s.start;
        }
        round_busy += ep_busy;
        if (kinds[i] == Kind::Blade)
            blade_max = std::max(blade_max, ep_busy);
    }
    if (first == UINT64_MAX)
        first = last = roundStart;

    roundNs += end - roundStart;
    advanceSpanNs += last - first;
    // Host time spent inside endpoint calls: on one thread the brackets
    // are disjoint, so their sum; on several, the wall-clock span.
    advanceCoveredNs += threads == 1 ? round_busy : last - first;
    bladeMaxNs += blade_max;
    if (spans.size() < spans.capacity())
        spans.push_back({roundStart, first, last, end});
    lastRoundEnd = end;
}

void
LayerTracer::collect(MetricMap &out) const
{
    uint64_t switch_ns = 0, blade_ns = 0, busy = 0;
    for (size_t i = 0; i < kinds.size(); ++i) {
        uint64_t ep = 0;
        for (uint32_t k = 0; k < slotCount[i]; ++k)
            ep += slots[firstSlot[i] + k].busy;
        busy += ep;
        if (kinds[i] == Kind::Switch)
            switch_ns += ep;
        else if (kinds[i] == Kind::Blade)
            blade_ns += ep;
    }
    out["net.fabric.round_ns"] = static_cast<double>(roundNs);
    out["net.fabric.bookkeeping_ns"] =
        static_cast<double>(roundNs - std::min(roundNs, advanceCoveredNs));
    out["net.fabric.between_rounds_ns"] =
        static_cast<double>(betweenRoundsNs);
    out["net.fabric.advance_span_ns"] = static_cast<double>(advanceSpanNs);
    out["net.fabric.advance_busy_ns"] = static_cast<double>(busy);
    out["net.fabric.advance_capacity_ns"] =
        static_cast<double>(advanceSpanNs) * threads;
    out["switchmodel.advance_ns"] = static_cast<double>(switch_ns);
    out["node.advance_ns"] = static_cast<double>(blade_ns);
    out["node.advance_max_ns"] = static_cast<double>(bladeMaxNs);
}

bool
LayerTracer::writeSpans(const std::string &path, int rank) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    auto us = [this](uint64_t t) {
        return static_cast<double>(t - origin) / 1e3;
    };
    auto span = [&](const char *name, uint64_t a, uint64_t b, size_t round,
                    bool &first) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":0,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%zu}}",
                     first ? "" : ",\n", name, rank, us(a),
                     static_cast<double>(b - a) / 1e3, round);
        first = false;
    };
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (size_t r = 0; r < spans.size(); ++r) {
        const RoundSpan &s = spans[r];
        span("round", s.start, s.end, r, first);
        span("prepare", s.start, s.advanceFirst, r, first);
        span("advance", s.advanceFirst, s.advanceLast, r, first);
        span("commit+observers", s.advanceLast, s.end, r, first);
        if (r + 1 < spans.size())
            span("flush+barrier", s.end, spans[r + 1].start, r, first);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
