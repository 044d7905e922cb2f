#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "riscv/assembler.hh"
#include "riscv/core.hh"
#include "telemetry/instr_trace.hh"
#include "tests/temp_dir.hh"

namespace firesim
{
namespace
{

using namespace regs;

TEST(InstructionTrace, RecordsInCommitOrder)
{
    InstructionTrace trace(16);
    trace.record(0x1000, OpClass::IntAlu, 1);
    trace.record(0x1004, OpClass::Load, 3);
    trace.record(0x1008, OpClass::Branch, 4);

    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.committed(), 3u);
    EXPECT_EQ(trace.dropped(), 0u);

    std::vector<TraceRecord> recs = trace.drain();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].pc, 0x1000u);
    EXPECT_EQ(recs[1].cls, OpClass::Load);
    EXPECT_EQ(recs[2].cycle, 4u);
    EXPECT_EQ(trace.size(), 0u); // drained
    EXPECT_EQ(trace.committed(), 3u); // lifetime total survives drain
}

TEST(InstructionTrace, RingOverflowKeepsNewest)
{
    InstructionTrace trace(4);
    for (uint64_t i = 0; i < 10; ++i)
        trace.record(0x1000 + 4 * i, OpClass::IntAlu, i);

    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.committed(), 10u);
    EXPECT_EQ(trace.dropped(), 6u);

    std::vector<TraceRecord> recs = trace.drain();
    ASSERT_EQ(recs.size(), 4u);
    // The newest four commits, still in commit order.
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(recs[i].cycle, 6 + i);
        EXPECT_EQ(recs[i].pc, 0x1000u + 4 * (6 + i));
    }
}

TEST(InstructionTrace, CompressedRoundTrip)
{
    InstructionTrace trace(64);
    // Loopy pattern with forward and backward pc deltas.
    for (int iter = 0; iter < 5; ++iter) {
        trace.record(0x80000000, OpClass::IntAlu, 10 * iter + 1);
        trace.record(0x80000004, OpClass::Load, 10 * iter + 3);
        trace.record(0x80000008, OpClass::Branch, 10 * iter + 4);
    }
    std::string bytes = trace.encodeCompressed();
    // Delta coding should beat the 17-byte raw record handily.
    EXPECT_LT(bytes.size(), 17u * 15u / 2);

    std::vector<TraceRecord> decoded =
        InstructionTrace::decodeCompressed(bytes);
    std::vector<TraceRecord> original = trace.drain();
    ASSERT_EQ(decoded.size(), original.size());
    for (size_t i = 0; i < decoded.size(); ++i)
        EXPECT_TRUE(decoded[i] == original[i]);
}

TEST(InstructionTraceDeath, CorruptStreamPanics)
{
    EXPECT_DEATH(InstructionTrace::decodeCompressed("junk"), "");
}

TEST(InstructionTrace, WrappedRingRoundTrip)
{
    // A wrapped ring (the encoder must honor the head offset) with
    // varied deltas, including backward branches.
    InstructionTrace trace(8192);
    uint64_t pc = 0x80000000;
    for (uint64_t i = 0; i < 10000; ++i) { // 10000 > 8192: ring wraps
        pc += (i % 7 == 0) ? 0xfffffffffffffff8ull : 4; // back branches
        trace.record(pc, static_cast<OpClass>(i % 8), 2 * i + 1);
    }
    ASSERT_EQ(trace.size(), 8192u);

    std::vector<TraceRecord> decoded =
        InstructionTrace::decodeCompressed(trace.encodeCompressed());
    std::vector<TraceRecord> original = trace.drain();
    ASSERT_EQ(decoded.size(), original.size());
    for (size_t i = 0; i < decoded.size(); ++i)
        ASSERT_TRUE(decoded[i] == original[i]) << "record " << i;
}

TEST(InstructionTrace, FileDumpRoundTrip)
{
    InstructionTrace trace(8);
    trace.record(0x2000, OpClass::Store, 7);
    trace.record(0x2004, OpClass::Jump, 9);

    std::string path = testTempDir() + "fsit_roundtrip.bin";
    ASSERT_TRUE(trace.writeCompressed(path));
    std::vector<TraceRecord> back = InstructionTrace::readCompressed(path);
    std::remove(path.c_str());

    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].pc, 0x2000u);
    EXPECT_EQ(back[1].cls, OpClass::Jump);
}

TEST(HotnessProfile, RanksByCommitCount)
{
    HotnessProfile prof;
    for (int i = 0; i < 10; ++i)
        prof.add(TraceRecord{0x1000, static_cast<uint64_t>(i),
                             OpClass::IntAlu});
    for (int i = 0; i < 3; ++i)
        prof.add(TraceRecord{0x2000, static_cast<uint64_t>(i),
                             OpClass::Load});
    prof.add(TraceRecord{0x3000, 0, OpClass::Branch});

    EXPECT_EQ(prof.total(), 14u);
    std::vector<HotnessProfile::Entry> top = prof.top(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].pc, 0x1000u);
    EXPECT_EQ(top[0].commits, 10u);
    EXPECT_EQ(top[1].pc, 0x2000u);

    std::string report = prof.report(3);
    EXPECT_NE(report.find("1000"), std::string::npos);
    EXPECT_NE(report.find("load"), std::string::npos);
}

/** A core running a small loop, with and without a tracer. */
struct TracedCoreFixture : public ::testing::Test
{
    TracedCoreFixture() : mem(64 * MiB), hier(1)
    {
        core = std::make_unique<RocketCore>(CoreConfig{}, mem, hier, &bus);
        mapStandardDevices(bus, *core);
    }

    /** count down from @p n to zero, then halt — a loop with ALU,
     *  branch, load and store traffic. */
    void
    loopProgram(int64_t n)
    {
        Assembler a(mem, memmap::kDramBase);
        a.li(a0, n);
        a.li(t1, static_cast<int64_t>(memmap::kDramBase + 0x10000));
        Assembler::Label loop = a.newLabel();
        a.bind(loop);
        a.sd(a0, t1, 0);
        a.ld(t2, t1, 0);
        a.addi(a0, a0, -1);
        a.bne(a0, zero, loop);
        a.halt(zero);
        a.finalize();
    }

    FunctionalMemory mem;
    MemHierarchy hier;
    MmioBus bus;
    std::unique_ptr<RocketCore> core;
};

TEST_F(TracedCoreFixture, TraceMatchesExecution)
{
    loopProgram(8);
    InstructionTrace trace(1 << 12);
    core->setTracer(&trace);
    auto r = core->run();
    ASSERT_TRUE(r.halted);

    // Every commit was recorded (ring was large enough).
    EXPECT_EQ(trace.committed(), r.instret);
    EXPECT_EQ(trace.dropped(), 0u);

    std::vector<TraceRecord> recs = trace.drain();
    ASSERT_EQ(recs.size(), r.instret);
    // Cycles are nondecreasing in commit order and the loop body pcs
    // repeat: the sd at the loop head commits 8 times.
    uint64_t loop_head_commits = 0;
    for (size_t i = 1; i < recs.size(); ++i)
        EXPECT_GE(recs[i].cycle, recs[i - 1].cycle);
    for (const TraceRecord &rec : recs)
        loop_head_commits += (rec.pc == recs[4].pc) ? 1 : 0;
    EXPECT_EQ(loop_head_commits, 8u);
    // Class mix: the loop commits loads, stores and branches.
    uint64_t loads = 0, stores = 0, branches = 0;
    for (const TraceRecord &rec : recs) {
        loads += rec.cls == OpClass::Load;
        stores += rec.cls == OpClass::Store;
        branches += rec.cls == OpClass::Branch;
    }
    EXPECT_EQ(loads, core->stats().loads);
    EXPECT_EQ(stores, core->stats().stores);
    EXPECT_EQ(branches, core->stats().branches);
}

TEST_F(TracedCoreFixture, TracingIsInvisibleToTheTarget)
{
    // Identical program, tracer on vs off: identical cycle totals,
    // instret, and architectural exit state.
    loopProgram(50);
    InstructionTrace trace(1 << 12);
    core->setTracer(&trace);
    auto traced = core->run();

    FunctionalMemory mem2(64 * MiB);
    MemHierarchy hier2(1);
    MmioBus bus2;
    RocketCore plain(CoreConfig{}, mem2, hier2, &bus2);
    mapStandardDevices(bus2, plain);
    Assembler a(mem2, memmap::kDramBase);
    a.li(a0, 50);
    a.li(t1, static_cast<int64_t>(memmap::kDramBase + 0x10000));
    Assembler::Label loop = a.newLabel();
    a.bind(loop);
    a.sd(a0, t1, 0);
    a.ld(t2, t1, 0);
    a.addi(a0, a0, -1);
    a.bne(a0, zero, loop);
    a.halt(zero);
    a.finalize();
    auto untraced = plain.run();

    EXPECT_EQ(traced.cycles, untraced.cycles);
    EXPECT_EQ(traced.instret, untraced.instret);
    EXPECT_EQ(traced.exitCode, untraced.exitCode);
    EXPECT_GT(trace.committed(), 0u);
}

TEST_F(TracedCoreFixture, TraceIsBitIdenticalAcrossRuns)
{
    // Two fresh cores, same program: the compressed byte streams must
    // match exactly (deterministic replay, ISSUE acceptance criterion).
    std::string bytes[2];
    for (int run = 0; run < 2; ++run) {
        FunctionalMemory m(64 * MiB);
        MemHierarchy h(1);
        MmioBus b;
        RocketCore c(CoreConfig{}, m, h, &b);
        mapStandardDevices(b, c);
        Assembler a(m, memmap::kDramBase);
        a.li(a0, 20);
        Assembler::Label loop = a.newLabel();
        a.bind(loop);
        a.addi(a0, a0, -1);
        a.bne(a0, zero, loop);
        a.halt(zero);
        a.finalize();
        InstructionTrace trace(1 << 12);
        c.setTracer(&trace);
        c.run();
        bytes[run] = trace.encodeCompressed();
    }
    EXPECT_GT(bytes[0].size(), 0u);
    EXPECT_EQ(bytes[0], bytes[1]);
}

TEST_F(TracedCoreFixture, HotnessFindsTheLoop)
{
    loopProgram(100);
    InstructionTrace trace(1 << 12);
    core->setTracer(&trace);
    core->run();

    HotnessProfile prof;
    prof.add(trace.drain());
    std::vector<HotnessProfile::Entry> top = prof.top(4);
    ASSERT_EQ(top.size(), 4u);
    // The four loop-body instructions dominate: ~100 commits each.
    for (const auto &e : top)
        EXPECT_GE(e.commits, 100u);
}

} // namespace
} // namespace firesim
