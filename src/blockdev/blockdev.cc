#include "blockdev/blockdev.hh"

#include <cmath>
#include <cstring>

#include "snapshot/state_io.hh"

namespace firesim
{

StorageTimingProfile
StorageTimingProfile::disk()
{
    // ~4 ms seek+rotate, ~150 MB/s sustained.
    return StorageTimingProfile{"disk", 12800000, 0.047};
}

StorageTimingProfile
StorageTimingProfile::ssd()
{
    // ~100 us access, ~3.2 GB/s sustained.
    return StorageTimingProfile{"ssd", 320000, 1.0};
}

StorageTimingProfile
StorageTimingProfile::xpoint()
{
    // ~10 us access, ~6.4 GB/s sustained.
    return StorageTimingProfile{"3dxpoint", 32000, 2.0};
}

BlockDevice::BlockDevice(BlockDevConfig config, EventQueue &queue,
                         FunctionalMemory &memory)
    : cfg(std::move(config)), eq(queue), mem(memory),
      storage(static_cast<uint64_t>(cfg.sectors ? cfg.sectors : 1) *
              kSectorBytes)
{
    if (cfg.trackers == 0)
        fatal("block device '%s' needs at least one tracker",
              cfg.name.c_str());
    if (cfg.sectors == 0)
        fatal("block device '%s' has zero capacity", cfg.name.c_str());
    trackerBusy.assign(cfg.trackers, false);
}

void
BlockDevice::setInterruptHandler(std::function<void()> handler)
{
    interruptHandler = std::move(handler);
}

std::optional<uint32_t>
BlockDevice::request(bool write, uint64_t mem_addr, uint32_t sector,
                     uint32_t count)
{
    if (count == 0)
        fatal("zero-length block transfer");
    if (sector + count > cfg.sectors || sector + count < sector)
        fatal("block transfer [%u,+%u) beyond device end (%u sectors)",
              sector, count, cfg.sectors);

    uint32_t id = cfg.trackers;
    for (uint32_t t = 0; t < cfg.trackers; ++t) {
        if (!trackerBusy[t]) {
            id = t;
            break;
        }
    }
    if (id == cfg.trackers)
        return std::nullopt;
    trackerBusy[id] = true;

    uint64_t bytes = static_cast<uint64_t>(count) * kSectorBytes;
    Cycles delay = cfg.timing.accessLatency +
        static_cast<Cycles>(std::ceil(bytes / cfg.timing.bytesPerCycle));

    eq.scheduleIn(delay, [this, write, mem_addr, sector, count, bytes, id] {
        uint64_t dev_addr = static_cast<uint64_t>(sector) * kSectorBytes;
        if (write) {
            storage.copyFrom(mem, mem_addr, dev_addr, bytes);
            ++stats_.writes;
        } else {
            mem.copyFrom(storage, dev_addr, mem_addr, bytes);
            ++stats_.reads;
        }
        stats_.sectorsMoved += count;
        trackerBusy[id] = false;
        completions.push_back(id);
        ++stats_.interruptsRaised;
        if (interruptHandler)
            eq.scheduleIn(0, [this] { interruptHandler(); });
    });
    return id;
}

std::optional<uint32_t>
BlockDevice::popCompletion()
{
    if (completions.empty())
        return std::nullopt;
    uint32_t id = completions.front();
    completions.pop_front();
    return id;
}

void
BlockDevice::writeImage(uint32_t sector, const void *src, uint64_t len)
{
    uint64_t base = static_cast<uint64_t>(sector) * kSectorBytes;
    FS_ASSERT(base + len <= storage.size(), "image write out of range");
    storage.write(base, src, len);
}

void
BlockDevice::readImage(uint32_t sector, void *dst, uint64_t len) const
{
    uint64_t base = static_cast<uint64_t>(sector) * kSectorBytes;
    FS_ASSERT(base + len <= storage.size(), "image read out of range");
    storage.read(base, dst, len);
}

void
BlockDevice::snapshotSave(Serializer &s) const
{
    s.putU(trackerBusy.size());
    for (bool b : trackerBusy)
        s.putB(b);
    s.putU(completions.size());
    for (uint32_t id : completions)
        s.putU(id);
    saveCounter(s, stats_.reads);
    saveCounter(s, stats_.writes);
    saveCounter(s, stats_.sectorsMoved);
    saveCounter(s, stats_.interruptsRaised);
    storage.snapshotSave(s);
}

void
BlockDevice::snapshotRestore(Deserializer &d, SnapshotErrors &err)
{
    uint64_t n = d.getU();
    if (n != trackerBusy.size()) {
        err.add(csprintf("%s tracker count: live %zu != snapshot %llu",
                         cfg.name.c_str(), trackerBusy.size(),
                         (unsigned long long)n));
        return;
    }
    for (size_t i = 0; i < trackerBusy.size(); ++i)
        trackerBusy[i] = d.getB();
    completions.clear();
    n = d.getU();
    for (uint64_t i = 0; i < n && d.ok(); ++i)
        completions.push_back(static_cast<uint32_t>(d.getU()));
    restoreCounter(d, stats_.reads);
    restoreCounter(d, stats_.writes);
    restoreCounter(d, stats_.sectorsMoved);
    restoreCounter(d, stats_.interruptsRaised);
    storage.snapshotRestore(d, err);
    if (!d.ok())
        err.add(cfg.name + ": " + d.error());
}

} // namespace firesim
