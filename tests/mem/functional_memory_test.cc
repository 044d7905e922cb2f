#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "mem/functional_memory.hh"
#include "snapshot/serial.hh"

namespace firesim
{
namespace
{

TEST(FunctionalMemory, ReadsOfUntouchedMemoryAreZero)
{
    FunctionalMemory mem(1 * MiB);
    uint8_t buf[16];
    std::fill(std::begin(buf), std::end(buf), 0xff);
    mem.read(0x1234, buf, sizeof(buf));
    for (uint8_t b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.allocatedPages(), 0u);
}

TEST(FunctionalMemory, WriteReadRoundTrip)
{
    FunctionalMemory mem(1 * MiB);
    std::vector<uint8_t> data(1000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    mem.write(0x8000, data.data(), data.size());
    std::vector<uint8_t> out(data.size());
    mem.read(0x8000, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST(FunctionalMemory, CrossPageAccesses)
{
    FunctionalMemory mem(1 * MiB);
    std::vector<uint8_t> data(FunctionalMemory::kPageBytes * 2 + 100, 0xab);
    uint64_t addr = FunctionalMemory::kPageBytes - 50;
    mem.write(addr, data.data(), data.size());
    std::vector<uint8_t> out(data.size());
    mem.read(addr, out.data(), out.size());
    EXPECT_EQ(out, data);
    EXPECT_EQ(mem.allocatedPages(), 4u); // partial, 2 full, partial
}

TEST(FunctionalMemory, ScalarAccessorsLittleEndian)
{
    FunctionalMemory mem(64 * KiB);
    mem.write64(0x100, 0x0123456789abcdefULL);
    EXPECT_EQ(mem.read8(0x100), 0xefu);
    EXPECT_EQ(mem.read16(0x100), 0xcdefu);
    EXPECT_EQ(mem.read32(0x100), 0x89abcdefu);
    EXPECT_EQ(mem.read64(0x100), 0x0123456789abcdefULL);
    mem.write32(0x200, 0xdeadbeef);
    EXPECT_EQ(mem.read32(0x200), 0xdeadbeefu);
    mem.write16(0x300, 0xcafe);
    EXPECT_EQ(mem.read16(0x300), 0xcafeu);
    mem.write8(0x400, 0x5a);
    EXPECT_EQ(mem.read8(0x400), 0x5au);
}

TEST(FunctionalMemory, SparseAllocationStaysSmall)
{
    // The paper's blades have 16 GiB; touching a few pages must not
    // materialize the capacity.
    FunctionalMemory mem(16 * GiB);
    mem.write64(0, 1);
    mem.write64(8 * GiB, 2);
    mem.write64(16 * GiB - 8, 3);
    EXPECT_EQ(mem.allocatedPages(), 3u);
    EXPECT_EQ(mem.read64(8 * GiB), 2u);
}

/** Logs every onCodeWrite() call a memory makes. */
struct WriteLog : CodeWriteWatch
{
    std::vector<std::pair<uint64_t, uint64_t>> calls;

    void
    onCodeWrite(uint64_t addr, uint64_t len) override
    {
        calls.emplace_back(addr, len);
    }
};

TEST(FunctionalMemory, CopyFromMatchesAStagingBufferCopy)
{
    constexpr uint64_t kPage = FunctionalMemory::kPageBytes;
    // Source: page 0 partly written, page 1 never written (reads as
    // zeros), page 2 full, page 3 never written, page 4 partly.
    FunctionalMemory src(1 * MiB);
    std::vector<uint8_t> pattern(kPage);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i * 7 + 1);
    src.write(100, pattern.data(), 3000);
    src.write(2 * kPage, pattern.data(), kPage);
    src.write(4 * kPage + 17, pattern.data(), 900);

    // (src_addr, dst_addr, len): aligned, misaligned on both sides,
    // spans of absent source pages, and a copy inside one page.
    const std::tuple<uint64_t, uint64_t, uint64_t> cases[] = {
        {0, 0, 5 * kPage},
        {50, 8 * kPage + 3000, 4 * kPage + 123},
        {kPage + 5, 20 * kPage + 4090, 2 * kPage},
        {2 * kPage + 10, 30 * kPage + 100, 200},
        {3 * kPage, 40 * kPage, kPage},
    };
    for (const auto &[src_addr, dst_addr, len] : cases) {
        FunctionalMemory direct(1 * MiB), staged(1 * MiB);
        WriteLog direct_log, staged_log;
        for (auto [mem, log] : {std::pair(&direct, &direct_log),
                                std::pair(&staged, &staged_log)}) {
            // Stale destination data that the copy must overwrite,
            // zeros included, and a watch window over the copy's tail.
            std::vector<uint8_t> stale(3 * kPage, 0xee);
            mem->write(dst_addr + len / 2, stale.data(), stale.size());
            log->watchLo = dst_addr + len - 64;
            log->watchHi = dst_addr + len + 64;
            mem->addCodeWatch(log);
        }

        direct.copyFrom(src, src_addr, dst_addr, len);
        std::vector<uint8_t> buf(len);
        src.read(src_addr, buf.data(), len);
        staged.write(dst_addr, buf.data(), len);

        EXPECT_EQ(direct.allocatedPages(), staged.allocatedPages());
        EXPECT_EQ(direct_log.calls, staged_log.calls);
        EXPECT_EQ(direct_log.calls.size(), 1u);
        std::vector<uint8_t> got(len);
        direct.read(dst_addr, got.data(), len);
        EXPECT_EQ(got, buf);
        // Snapshots store exactly the allocated pages and their bytes.
        Serializer a, b;
        direct.snapshotSave(a);
        staged.snapshotSave(b);
        EXPECT_EQ(a.bytes(), b.bytes())
            << "src " << src_addr << " dst " << dst_addr << " len " << len;
        direct.removeCodeWatch(&direct_log);
        staged.removeCodeWatch(&staged_log);
    }
    // The source is only read: no page appears in it.
    EXPECT_EQ(src.allocatedPages(), 3u);
}

TEST(FunctionalMemoryDeath, OutOfBoundsRejected)
{
    FunctionalMemory mem(4096);
    uint8_t b = 0;
    EXPECT_DEATH(mem.read(4096, &b, 1), "out of bounds");
    EXPECT_DEATH(mem.write(4090, &b, 8), "out of bounds");
}

TEST(FunctionalMemoryDeath, ZeroSizeRejected)
{
    EXPECT_EXIT(FunctionalMemory(0), ::testing::ExitedWithCode(1),
                "nonzero");
}

} // namespace
} // namespace firesim
