#include "riscv/assembler.hh"

#include "base/logging.hh"
#include "base/units.hh"

namespace firesim
{

namespace
{

constexpr uint64_t kUnbound = ~0ULL;

uint32_t
rtype(uint32_t funct7, Reg rs2, Reg rs1, uint32_t funct3, Reg rd,
      uint32_t opcode)
{
    return (funct7 << 25) | (uint32_t(rs2) << 20) | (uint32_t(rs1) << 15) |
           (funct3 << 12) | (uint32_t(rd) << 7) | opcode;
}

uint32_t
itype(int32_t imm, Reg rs1, uint32_t funct3, Reg rd, uint32_t opcode)
{
    FS_ASSERT(imm >= -2048 && imm <= 2047, "I-imm %d out of range", imm);
    return (uint32_t(imm & 0xfff) << 20) | (uint32_t(rs1) << 15) |
           (funct3 << 12) | (uint32_t(rd) << 7) | opcode;
}

uint32_t
stype(int32_t imm, Reg rs2, Reg rs1, uint32_t funct3, uint32_t opcode)
{
    FS_ASSERT(imm >= -2048 && imm <= 2047, "S-imm %d out of range", imm);
    uint32_t u = uint32_t(imm & 0xfff);
    return ((u >> 5) << 25) | (uint32_t(rs2) << 20) |
           (uint32_t(rs1) << 15) | (funct3 << 12) | ((u & 0x1f) << 7) |
           opcode;
}

uint32_t
btype(int32_t imm, Reg rs2, Reg rs1, uint32_t funct3)
{
    FS_ASSERT(imm >= -4096 && imm <= 4095 && (imm & 1) == 0,
              "B-imm %d out of range", imm);
    uint32_t u = uint32_t(imm);
    return (((u >> 12) & 1) << 31) | (((u >> 5) & 0x3f) << 25) |
           (uint32_t(rs2) << 20) | (uint32_t(rs1) << 15) |
           (funct3 << 12) | (((u >> 1) & 0xf) << 8) |
           (((u >> 11) & 1) << 7) | 0x63;
}

uint32_t
utype(int32_t imm20, Reg rd, uint32_t opcode)
{
    return (uint32_t(imm20) << 12) | (uint32_t(rd) << 7) | opcode;
}

uint32_t
jtype(int64_t imm, Reg rd)
{
    FS_ASSERT(imm >= -(1 << 20) && imm < (1 << 20) && (imm & 1) == 0,
              "J-imm %lld out of range", (long long)imm);
    uint32_t u = uint32_t(imm);
    return (((u >> 20) & 1) << 31) | (((u >> 1) & 0x3ff) << 21) |
           (((u >> 11) & 1) << 20) | (((u >> 12) & 0xff) << 12) |
           (uint32_t(rd) << 7) | 0x6f;
}

} // namespace

Assembler::Assembler(FunctionalMemory &memory, uint64_t base,
                     uint64_t dram_base)
    : mem(memory), dramBase(dram_base), cur(base)
{
    if (base < dram_base)
        fatal("code base %llx below DRAM base %llx",
              (unsigned long long)base, (unsigned long long)dram_base);
}

uint64_t
Assembler::toOffset(uint64_t core_addr) const
{
    return core_addr - dramBase;
}

void
Assembler::emit(uint32_t insn)
{
    FS_ASSERT(!finalized, "emit after finalize()");
    mem.write32(toOffset(cur), insn);
    cur += 4;
}

Assembler::Label
Assembler::newLabel()
{
    labels.push_back(kUnbound);
    return static_cast<Label>(labels.size() - 1);
}

void
Assembler::bind(Label label)
{
    FS_ASSERT(label < labels.size(), "unknown label");
    FS_ASSERT(labels[label] == kUnbound, "label bound twice");
    labels[label] = cur;
}

void
Assembler::patch(const Fixup &fixup, uint64_t target)
{
    int64_t delta = static_cast<int64_t>(target) -
                    static_cast<int64_t>(fixup.at);
    uint32_t insn = mem.read32(toOffset(fixup.at));
    if (fixup.isJal) {
        Reg rd = static_cast<Reg>((insn >> 7) & 0x1f);
        insn = jtype(delta, rd);
    } else {
        Reg rs1 = static_cast<Reg>((insn >> 15) & 0x1f);
        Reg rs2 = static_cast<Reg>((insn >> 20) & 0x1f);
        uint32_t funct3 = (insn >> 12) & 7;
        insn = btype(static_cast<int32_t>(delta), rs2, rs1, funct3);
    }
    mem.write32(toOffset(fixup.at), insn);
}

void
Assembler::finalize()
{
    FS_ASSERT(!finalized, "finalize() twice");
    for (const Fixup &fixup : fixups) {
        FS_ASSERT(labels[fixup.label] != kUnbound,
                  "label %u never bound", fixup.label);
        patch(fixup, labels[fixup.label]);
    }
    fixups.clear();
    finalized = true;
}

void
Assembler::emitBranch(uint32_t funct3, Reg rs1, Reg rs2, Label t)
{
    fixups.push_back(Fixup{cur, t, false});
    // Placeholder with zero offset; patched in finalize().
    emit(btype(0, rs2, rs1, funct3));
}

void
Assembler::jal(Reg rd, Label t)
{
    fixups.push_back(Fixup{cur, t, true});
    emit(jtype(0, rd));
}

void Assembler::lui(Reg rd, int32_t imm20) { emit(utype(imm20, rd, 0x37)); }
void Assembler::auipc(Reg rd, int32_t imm20) { emit(utype(imm20, rd, 0x17)); }
void Assembler::jalr(Reg rd, Reg rs1, int32_t imm)
{
    emit(itype(imm, rs1, 0, rd, 0x67));
}

void Assembler::beq(Reg a, Reg b, Label t) { emitBranch(0, a, b, t); }
void Assembler::bne(Reg a, Reg b, Label t) { emitBranch(1, a, b, t); }
void Assembler::blt(Reg a, Reg b, Label t) { emitBranch(4, a, b, t); }
void Assembler::bge(Reg a, Reg b, Label t) { emitBranch(5, a, b, t); }
void Assembler::bltu(Reg a, Reg b, Label t) { emitBranch(6, a, b, t); }
void Assembler::bgeu(Reg a, Reg b, Label t) { emitBranch(7, a, b, t); }

void Assembler::lb(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 0, rd, 0x03)); }
void Assembler::lh(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 1, rd, 0x03)); }
void Assembler::lw(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 2, rd, 0x03)); }
void Assembler::ld(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 3, rd, 0x03)); }
void Assembler::lbu(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 4, rd, 0x03)); }
void Assembler::lhu(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 5, rd, 0x03)); }
void Assembler::lwu(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 6, rd, 0x03)); }
void Assembler::sb(Reg rs2, Reg rs1, int32_t i) { emit(stype(i, rs2, rs1, 0, 0x23)); }
void Assembler::sh(Reg rs2, Reg rs1, int32_t i) { emit(stype(i, rs2, rs1, 1, 0x23)); }
void Assembler::sw(Reg rs2, Reg rs1, int32_t i) { emit(stype(i, rs2, rs1, 2, 0x23)); }
void Assembler::sd(Reg rs2, Reg rs1, int32_t i) { emit(stype(i, rs2, rs1, 3, 0x23)); }

void Assembler::addi(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 0, rd, 0x13)); }
void Assembler::slti(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 2, rd, 0x13)); }
void Assembler::sltiu(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 3, rd, 0x13)); }
void Assembler::xori(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 4, rd, 0x13)); }
void Assembler::ori(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 6, rd, 0x13)); }
void Assembler::andi(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 7, rd, 0x13)); }

void
Assembler::slli(Reg rd, Reg rs1, uint32_t sh)
{
    FS_ASSERT(sh < 64, "shift amount");
    emit((sh << 20) | (uint32_t(rs1) << 15) | (1u << 12) |
         (uint32_t(rd) << 7) | 0x13);
}

void
Assembler::srli(Reg rd, Reg rs1, uint32_t sh)
{
    FS_ASSERT(sh < 64, "shift amount");
    emit((sh << 20) | (uint32_t(rs1) << 15) | (5u << 12) |
         (uint32_t(rd) << 7) | 0x13);
}

void
Assembler::srai(Reg rd, Reg rs1, uint32_t sh)
{
    FS_ASSERT(sh < 64, "shift amount");
    emit((0x10u << 26) | (sh << 20) | (uint32_t(rs1) << 15) | (5u << 12) |
         (uint32_t(rd) << 7) | 0x13);
}

void Assembler::add(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 0, d, 0x33)); }
void Assembler::sub(Reg d, Reg a, Reg b) { emit(rtype(0x20, b, a, 0, d, 0x33)); }
void Assembler::sll(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 1, d, 0x33)); }
void Assembler::slt(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 2, d, 0x33)); }
void Assembler::sltu(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 3, d, 0x33)); }
void Assembler::xor_(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 4, d, 0x33)); }
void Assembler::srl(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 5, d, 0x33)); }
void Assembler::sra(Reg d, Reg a, Reg b) { emit(rtype(0x20, b, a, 5, d, 0x33)); }
void Assembler::or_(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 6, d, 0x33)); }
void Assembler::and_(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 7, d, 0x33)); }

void Assembler::addiw(Reg rd, Reg rs1, int32_t i) { emit(itype(i, rs1, 0, rd, 0x1b)); }

void
Assembler::slliw(Reg rd, Reg rs1, uint32_t sh)
{
    FS_ASSERT(sh < 32, "shift amount");
    emit((sh << 20) | (uint32_t(rs1) << 15) | (1u << 12) |
         (uint32_t(rd) << 7) | 0x1b);
}

void
Assembler::srliw(Reg rd, Reg rs1, uint32_t sh)
{
    FS_ASSERT(sh < 32, "shift amount");
    emit((sh << 20) | (uint32_t(rs1) << 15) | (5u << 12) |
         (uint32_t(rd) << 7) | 0x1b);
}

void
Assembler::sraiw(Reg rd, Reg rs1, uint32_t sh)
{
    FS_ASSERT(sh < 32, "shift amount");
    emit((0x20u << 25) | (sh << 20) | (uint32_t(rs1) << 15) | (5u << 12) |
         (uint32_t(rd) << 7) | 0x1b);
}

void Assembler::addw(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 0, d, 0x3b)); }
void Assembler::subw(Reg d, Reg a, Reg b) { emit(rtype(0x20, b, a, 0, d, 0x3b)); }
void Assembler::sllw(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 1, d, 0x3b)); }
void Assembler::srlw(Reg d, Reg a, Reg b) { emit(rtype(0, b, a, 5, d, 0x3b)); }
void Assembler::sraw(Reg d, Reg a, Reg b) { emit(rtype(0x20, b, a, 5, d, 0x3b)); }

void Assembler::ecall() { emit(0x00000073); }
void Assembler::ebreak() { emit(0x00100073); }
void Assembler::fence() { emit(0x0ff0000f); }

void Assembler::mul(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 0, d, 0x33)); }
void Assembler::mulh(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 1, d, 0x33)); }
void Assembler::mulhsu(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 2, d, 0x33)); }
void Assembler::mulhu(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 3, d, 0x33)); }
void Assembler::div(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 4, d, 0x33)); }
void Assembler::divu(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 5, d, 0x33)); }
void Assembler::rem(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 6, d, 0x33)); }
void Assembler::remu(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 7, d, 0x33)); }
void Assembler::mulw(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 0, d, 0x3b)); }
void Assembler::divw(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 4, d, 0x3b)); }
void Assembler::divuw(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 5, d, 0x3b)); }
void Assembler::remw(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 6, d, 0x3b)); }
void Assembler::remuw(Reg d, Reg a, Reg b) { emit(rtype(1, b, a, 7, d, 0x3b)); }

void
Assembler::custom0(uint32_t funct7, Reg rd, Reg rs1, Reg rs2)
{
    FS_ASSERT(funct7 < 128, "funct7 out of range");
    emit(rtype(funct7, rs2, rs1, 7, rd, 0x0b));
}

void
Assembler::custom1(uint32_t funct7, Reg rd, Reg rs1, Reg rs2)
{
    FS_ASSERT(funct7 < 128, "funct7 out of range");
    emit(rtype(funct7, rs2, rs1, 7, rd, 0x2b));
}

void
Assembler::li(Reg rd, int64_t imm)
{
    if (imm >= -2048 && imm <= 2047) {
        addi(rd, 0, static_cast<int32_t>(imm));
        return;
    }
    if (imm >= INT32_MIN && imm <= INT32_MAX) {
        int32_t lo = static_cast<int32_t>((imm << 52) >> 52); // sext12
        int32_t hi = static_cast<int32_t>((imm - lo) >> 12);
        lui(rd, hi);
        if (lo)
            addiw(rd, rd, lo);
        return;
    }
    // General 64-bit: materialize the upper part recursively, then
    // shift and or in 12-bit chunks. The split is taken modulo 2^64:
    // imm - lo overflows int64_t for constants near INT64_MAX.
    uint64_t bits = static_cast<uint64_t>(imm);
    int64_t lo = static_cast<int64_t>(bits << 52) >> 52;
    int64_t hi = static_cast<int64_t>(bits - static_cast<uint64_t>(lo)) >> 12;
    li(rd, hi);
    slli(rd, rd, 12);
    if (lo)
        addi(rd, rd, static_cast<int32_t>(lo));
}

void
Assembler::halt(Reg code_reg)
{
    li(regs::t6, static_cast<int64_t>(memmap::kTohost));
    sd(code_reg, regs::t6, 0);
    // Spin: the store above halts the core; this is unreachable.
    Label self = newLabel();
    bind(self);
    j(self);
}

} // namespace firesim
