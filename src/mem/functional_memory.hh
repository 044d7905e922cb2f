/**
 * @file
 * Sparse functional memory backing a server blade's DRAM.
 *
 * Functional state only — timing is supplied by the cache hierarchy and
 * the DDR3 timing model (dram.hh) for the RISC-V core path, and by the
 * DMA models in the NIC/block device. Pages are allocated lazily so a
 * blade can be configured with the paper's 16 GiB without host cost.
 */

#ifndef FIRESIM_MEM_FUNCTIONAL_MEMORY_HH
#define FIRESIM_MEM_FUNCTIONAL_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace firesim
{

class Serializer;
class Deserializer;
struct SnapshotErrors;

/**
 * Observer for writes into a watched address range, registered with
 * FunctionalMemory::addCodeWatch. Used by the decode cache
 * (riscv/decode_cache.hh) to invalidate predecoded instructions when
 * anything — a store, a DMA engine, a snapshot restore — rewrites
 * code it has cached. The watcher maintains its own [watchLo, watchHi)
 * half-open range; writes outside it cost two compares.
 */
class CodeWriteWatch
{
  public:
    virtual ~CodeWriteWatch() = default;

    /** A write of @p len bytes at @p addr overlapped the watch range. */
    virtual void onCodeWrite(uint64_t addr, uint64_t len) = 0;

    uint64_t watchLo = ~0ULL; //!< watched range low bound (inclusive)
    uint64_t watchHi = 0;     //!< watched range high bound (exclusive)
};

/** Byte-addressable sparse memory with 4 KiB backing pages. */
class FunctionalMemory
{
  public:
    static constexpr uint64_t kPageBytes = 4096;

    /** @param size_bytes capacity; accesses beyond it panic. */
    explicit FunctionalMemory(uint64_t size_bytes)
        : capacity(size_bytes)
    {
        if (size_bytes == 0)
            fatal("memory size must be nonzero");
    }

    uint64_t size() const { return capacity; }

    /** Copy @p len bytes at @p addr into @p dst. */
    void read(uint64_t addr, void *dst, uint64_t len) const;

    /** Copy @p len bytes from @p src into memory at @p addr. */
    void write(uint64_t addr, const void *src, uint64_t len);

    /**
     * Copy @p len bytes at @p src_addr of another memory @p src into
     * this one at @p addr, page run by page run — a DMA between two
     * memories without a staging buffer. The effect is exactly that of
     * src.read() into a buffer followed by write(): every destination
     * page is allocated (a source page never written copies as zeros)
     * and code watchers are notified over the whole range.
     */
    void copyFrom(const FunctionalMemory &src, uint64_t src_addr,
                  uint64_t addr, uint64_t len);

    /**
     * Little-endian scalar accessors used by the RISC-V core. Inlined
     * fast path: when the access falls entirely inside the cached
     * last-touched page it is a single memcpy; page-crossing, uncached
     * and out-of-range accesses fall back to the general read()/write()
     * (which assert, allocate, and chunk). Writes notify code watchers
     * exactly like write() does.
     */
    uint64_t
    read64(uint64_t addr) const
    {
        uint64_t v;
        readScalar(addr, &v, 8);
        return v;
    }
    uint32_t
    read32(uint64_t addr) const
    {
        uint32_t v;
        readScalar(addr, &v, 4);
        return v;
    }
    uint16_t
    read16(uint64_t addr) const
    {
        uint16_t v;
        readScalar(addr, &v, 2);
        return v;
    }
    uint8_t
    read8(uint64_t addr) const
    {
        uint8_t v;
        readScalar(addr, &v, 1);
        return v;
    }
    void write64(uint64_t addr, uint64_t v) { writeScalar(addr, &v, 8); }
    void write32(uint64_t addr, uint32_t v) { writeScalar(addr, &v, 4); }
    void write16(uint64_t addr, uint16_t v) { writeScalar(addr, &v, 2); }
    void write8(uint64_t addr, uint8_t v) { writeScalar(addr, &v, 1); }

    /** Number of lazily allocated backing pages (for tests). */
    size_t allocatedPages() const { return pages.size(); }

    /**
     * Register/unregister a write watcher. Watchers are notified from
     * write() for any overlap with their [watchLo, watchHi) range, and
     * with the full capacity on snapshotRestore (a wholesale clobber).
     */
    void addCodeWatch(CodeWriteWatch *watch);
    void removeCodeWatch(CodeWriteWatch *watch);

    /**
     * Serialize only the allocated (dirty) pages, sorted by page
     * index — untouched memory reads as zero and costs nothing in the
     * snapshot. Restore drops all current pages and rebuilds exactly
     * the saved set.
     */
    void snapshotSave(Serializer &s) const;
    void snapshotRestore(Deserializer &d, SnapshotErrors &err);

  private:
    static constexpr uint64_t kPageShift = 12;
    static_assert((1ULL << kPageShift) == kPageBytes,
                  "kPageShift must match kPageBytes");

    uint8_t *pageFor(uint64_t addr, bool allocate) const;

    void
    noteWrite(uint64_t addr, uint64_t len)
    {
        for (CodeWriteWatch *w : watches)
            if (addr < w->watchHi && addr + len > w->watchLo)
                w->onCodeWrite(addr, len);
    }

    void
    readScalar(uint64_t addr, void *dst, uint32_t len) const
    {
        uint64_t off = addr & (kPageBytes - 1);
        if ((addr >> kPageShift) == lastPage &&
            off + len <= kPageBytes && addr + len <= capacity) {
            std::memcpy(dst, lastPtr + off, len);
            return;
        }
        read(addr, dst, len);
    }

    void
    writeScalar(uint64_t addr, const void *src, uint32_t len)
    {
        uint64_t off = addr & (kPageBytes - 1);
        if ((addr >> kPageShift) == lastPage &&
            off + len <= kPageBytes && addr + len <= capacity) {
            if (!watches.empty())
                noteWrite(addr, len);
            std::memcpy(lastPtr + off, src, len);
            return;
        }
        write(addr, src, len);
    }

    uint64_t capacity;
    // mutable: reads of untouched memory return zeroes without
    // allocating; the map itself is only grown on writes.
    mutable std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages;
    // Last-page lookup cache: the interpreter's fetch/load/store loop
    // touches the same page run after run, so this removes the hash
    // probe from the common case. unordered_map never moves its nodes,
    // so the cached pointer survives unrelated inserts.
    mutable uint64_t lastPage = ~0ULL;
    mutable uint8_t *lastPtr = nullptr;
    std::vector<CodeWriteWatch *> watches;
};

} // namespace firesim

#endif // FIRESIM_MEM_FUNCTIONAL_MEMORY_HH
