#include "mem/functional_memory.hh"

#include <algorithm>
#include <cstring>

#include "snapshot/serial.hh"

namespace firesim
{

uint8_t *
FunctionalMemory::pageFor(uint64_t addr, bool allocate) const
{
    uint64_t page = addr / kPageBytes;
    if (page == lastPage)
        return lastPtr;
    auto it = pages.find(page);
    if (it != pages.end()) {
        lastPage = page;
        lastPtr = it->second.get();
        return lastPtr;
    }
    if (!allocate)
        return nullptr;
    auto mem = std::make_unique<uint8_t[]>(kPageBytes); // zero-filled
    uint8_t *raw = mem.get();
    pages.emplace(page, std::move(mem));
    lastPage = page;
    lastPtr = raw;
    return raw;
}

void
FunctionalMemory::addCodeWatch(CodeWriteWatch *watch)
{
    watches.push_back(watch);
}

void
FunctionalMemory::removeCodeWatch(CodeWriteWatch *watch)
{
    watches.erase(std::remove(watches.begin(), watches.end(), watch),
                  watches.end());
}

void
FunctionalMemory::read(uint64_t addr, void *dst, uint64_t len) const
{
    FS_ASSERT(addr + len <= capacity && addr + len >= addr,
              "read [%llx,+%llu) out of bounds (capacity %llx)",
              (unsigned long long)addr, (unsigned long long)len,
              (unsigned long long)capacity);
    uint8_t *out = static_cast<uint8_t *>(dst);
    while (len > 0) {
        uint64_t in_page = kPageBytes - addr % kPageBytes;
        uint64_t chunk = std::min(len, in_page);
        const uint8_t *page = pageFor(addr, false);
        if (page)
            std::memcpy(out, page + addr % kPageBytes, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::write(uint64_t addr, const void *src, uint64_t len)
{
    FS_ASSERT(addr + len <= capacity && addr + len >= addr,
              "write [%llx,+%llu) out of bounds (capacity %llx)",
              (unsigned long long)addr, (unsigned long long)len,
              (unsigned long long)capacity);
    if (!watches.empty())
        noteWrite(addr, len);
    const uint8_t *in = static_cast<const uint8_t *>(src);
    while (len > 0) {
        uint64_t in_page = kPageBytes - addr % kPageBytes;
        uint64_t chunk = std::min(len, in_page);
        uint8_t *page = pageFor(addr, true);
        std::memcpy(page + addr % kPageBytes, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::copyFrom(const FunctionalMemory &src, uint64_t src_addr,
                           uint64_t addr, uint64_t len)
{
    FS_ASSERT(&src != this, "copyFrom within one memory");
    FS_ASSERT(src_addr + len <= src.capacity && src_addr + len >= src_addr,
              "read [%llx,+%llu) out of bounds (capacity %llx)",
              (unsigned long long)src_addr, (unsigned long long)len,
              (unsigned long long)src.capacity);
    FS_ASSERT(addr + len <= capacity && addr + len >= addr,
              "write [%llx,+%llu) out of bounds (capacity %llx)",
              (unsigned long long)addr, (unsigned long long)len,
              (unsigned long long)capacity);
    if (!watches.empty())
        noteWrite(addr, len);
    while (len > 0) {
        uint64_t chunk = std::min({len, kPageBytes - addr % kPageBytes,
                                   kPageBytes - src_addr % kPageBytes});
        uint8_t *to = pageFor(addr, true) + addr % kPageBytes;
        const uint8_t *from = src.pageFor(src_addr, false);
        if (from)
            std::memcpy(to, from + src_addr % kPageBytes, chunk);
        else
            std::memset(to, 0, chunk);
        addr += chunk;
        src_addr += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::snapshotSave(Serializer &s) const
{
    s.putU(capacity);
    std::vector<uint64_t> indices;
    indices.reserve(pages.size());
    for (const auto &[idx, page] : pages)
        indices.push_back(idx);
    std::sort(indices.begin(), indices.end());
    s.putU(indices.size());
    for (uint64_t idx : indices) {
        s.putU(idx);
        s.putBytes(pages.at(idx).get(), kPageBytes);
    }
}

void
FunctionalMemory::snapshotRestore(Deserializer &d, SnapshotErrors &err)
{
    expectEq(err, "memory capacity", capacity, d.getU());
    uint64_t count = d.getU();
    std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> restored;
    for (uint64_t i = 0; i < count && d.ok(); ++i) {
        uint64_t idx = d.getU();
        auto page = std::make_unique_for_overwrite<uint8_t[]>(kPageBytes);
        if (!d.getBytesInto(page.get(), kPageBytes))
            break;
        restored.emplace(idx, std::move(page));
    }
    if (!d.ok()) {
        err.add("memory pages: " + d.error());
        return;
    }
    pages = std::move(restored);
    lastPage = ~0ULL;
    lastPtr = nullptr;
    // A restore rewrites memory wholesale; watchers must drop anything
    // derived from the old contents.
    for (CodeWriteWatch *w : watches)
        w->onCodeWrite(0, capacity);
}

} // namespace firesim
