#include "pe/pe.hpp"

#include <bit>

#include "support/diagnostics.hpp"

namespace qm::pe {

using isa::Instruction;
using isa::Opcode;
using isa::Src;
using isa::SrcKind;
using isa::RegDummy;
using isa::RegNar;
using isa::RegPom;
using isa::RegQp;
using isa::RegPc;

HostStatus
NullHost::send(Word, Word)
{
    fatal("channel send with no host attached");
}

HostStatus
NullHost::recv(Word, Word &)
{
    fatal("channel receive with no host attached");
}

TrapOutcome
NullHost::trap(Word, Word)
{
    fatal("trap with no host attached");
}

Word
pomForPageWords(int words)
{
    fatalIf(words < 32 || words > 256 || !std::has_single_bit(
                static_cast<unsigned>(words)),
            "queue page must be a power of two in [32,256], got ", words);
    int m = std::countr_zero(static_cast<unsigned>(words));
    return static_cast<Word>(0xFF << m) & 0xFF;
}

int
pageWordsForPom(Word pom)
{
    // m = number of zero bits on the right of the 8-bit mask.
    int m = std::countr_zero(static_cast<unsigned>(pom & 0xFF) | 0x100);
    return 1 << m;
}

ProcessingElement::ProcessingElement(Memory &memory,
                                     isa::DecodedProgram &code,
                                     PeHost &host)
    : memory_(memory), code_(code), host_(&host)
{
    globals_[RegPom - 16] = pomForPageWords(64);
    pom_ = globals_[RegPom - 16];
}

void
ProcessingElement::loadContext(const ContextState &state)
{
    pc_ = state.pc;
    qp_ = state.qp;
    pom_ = state.pom;
    nar_ = state.nar;
    lastResult_ = state.lastResult;
    for (int i = 0; i < 11; ++i)
        globals_[static_cast<size_t>(17 + i - 16)] =
            state.generals[static_cast<size_t>(i)];
    presence_.fill(false);
}

ContextState
ProcessingElement::saveContext()
{
    rollOut();
    ContextState state;
    state.pc = pc_;
    state.qp = qp_;
    state.pom = pom_;
    state.nar = nar_;
    state.lastResult = lastResult_;
    for (int i = 0; i < 11; ++i)
        state.generals[static_cast<size_t>(i)] =
            globals_[static_cast<size_t>(17 + i - 16)];
    return state;
}

long
ProcessingElement::rollOut()
{
    long cycles = 0;
    for (int n = 0; n < 16; ++n) {
        int phys = physicalIndex(n);
        if (presence_[static_cast<size_t>(phys)]) {
            memory_.writeWord(windowAddress(n),
                              window_[static_cast<size_t>(phys)]);
            presence_[static_cast<size_t>(phys)] = false;
            cycles += kRollOutCyclesPerReg;
            stats_.inc(metric::PeRolloutRegs);
        }
    }
    return cycles;
}

int
ProcessingElement::physicalIndex(int n) const
{
    int q = static_cast<int>((qp_ >> 2) & 0xFF);
    return (q + n) & 0xF;
}

Addr
ProcessingElement::windowAddress(int n) const
{
    // Fig 5.5: each POM bit selects between the raw page-offset bit and
    // the bit of (offset + n), producing wrap-around within the page.
    Word q = (qp_ >> 2) & 0xFF;
    Word sum = (q + static_cast<Word>(n)) & 0xFF;
    Word mask = pom_ & 0xFF;
    Word woffset = (q & mask) | (sum & ~mask & 0xFF);
    return (qp_ & ~static_cast<Word>(0x3FF)) | (woffset << 2);
}

void
ProcessingElement::bumpQp(int inc)
{
    if (inc == 0)
        return;
    for (int n = 0; n < inc; ++n)
        presence_[static_cast<size_t>(physicalIndex(n))] = false;
    Word q = (qp_ >> 2) & 0xFF;
    Word sum = (q + static_cast<Word>(inc)) & 0xFF;
    Word mask = pom_ & 0xFF;
    Word next = (q & mask) | (sum & ~mask & 0xFF);
    qp_ = (qp_ & ~static_cast<Word>(0x3FF)) | (next << 2);
}

Word
ProcessingElement::readSrc(const Src &src, long &cycles)
{
    switch (src.kind) {
      case SrcKind::None:
        return 0;
      case SrcKind::WindowReg: {
        int phys = physicalIndex(src.reg);
        if (presence_[static_cast<size_t>(phys)]) {
            stats_.inc(metric::PeWindowHits);
            return window_[static_cast<size_t>(phys)];
        }
        stats_.inc(metric::PeWindowMisses);
        cycles += kMemoryCycles;
        return memory_.readWord(windowAddress(src.reg));
      }
      case SrcKind::GlobalReg:
        return readReg(src.reg);
      case SrcKind::SmallImm:
      case SrcKind::ImmWord:
        return static_cast<Word>(src.imm);
    }
    panic("unreachable src kind");
}

Word
ProcessingElement::readReg(int reg)
{
    panicIf(reg < 0 || reg > 31, "register out of range: ", reg);
    if (reg < 16) {
        int phys = physicalIndex(reg);
        if (presence_[static_cast<size_t>(phys)])
            return window_[static_cast<size_t>(phys)];
        return memory_.readWord(windowAddress(reg));
    }
    switch (reg) {
      case RegDummy: return 0;
      case RegNar: return nar_;
      case RegPom: return pom_;
      case RegQp: return qp_;
      case RegPc: return pc_;
      default: return globals_[static_cast<size_t>(reg - 16)];
    }
}

void
ProcessingElement::writeReg(int reg, Word value)
{
    panicIf(reg < 0 || reg > 31, "register out of range: ", reg);
    if (reg < 16) {
        int phys = physicalIndex(reg);
        window_[static_cast<size_t>(phys)] = value;
        presence_[static_cast<size_t>(phys)] = true;
        return;
    }
    switch (reg) {
      case RegDummy:
        return;  // Writes to DUMMY are discarded.
      case RegNar:
        nar_ = value;
        return;
      case RegPom:
        pom_ = value;
        return;
      case RegQp:
        // Moving the queue pointer re-targets the window; the presence
        // bits no longer describe the new page.
        qp_ = value;
        presence_.fill(false);
        return;
      case RegPc:
        pc_ = value;
        pcWritten_ = true;
        return;
      default:
        globals_[static_cast<size_t>(reg - 16)] = value;
        return;
    }
}

Word
ProcessingElement::aluResult(Opcode op, Word a, Word b)
{
    auto sa = static_cast<isa::SWord>(a);
    auto sb = static_cast<isa::SWord>(b);
    switch (op) {
      case Opcode::Or: return a | b;
      case Opcode::And: return a & b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Lshift: return a << (b & 31);
      case Opcode::Rshift:
        return static_cast<Word>(sa >> (b & 31));  // arithmetic shift
      case Opcode::Plus: return a + b;
      case Opcode::Minus: return a - b;
      // Mul, Div and Rem wrap in two's complement: the product is
      // taken mod 2^32, INT32_MIN / -1 is INT32_MIN and INT32_MIN \ -1
      // is 0 (the signed host operations would overflow or trap).
      case Opcode::Mul: return a * b;
      case Opcode::Div:
        fatalIf(sb == 0, "division by zero");
        if (sb == -1)
            return 0u - a;
        return static_cast<Word>(sa / sb);
      case Opcode::Rem:
        fatalIf(sb == 0, "remainder by zero");
        if (sb == -1)
            return 0;
        return static_cast<Word>(sa % sb);
      case Opcode::Ge: return sa >= sb ? isa::kTrue : isa::kFalse;
      case Opcode::Ne: return a != b ? isa::kTrue : isa::kFalse;
      case Opcode::Gt: return sa > sb ? isa::kTrue : isa::kFalse;
      case Opcode::Lt: return sa < sb ? isa::kTrue : isa::kFalse;
      case Opcode::Eq: return a == b ? isa::kTrue : isa::kFalse;
      case Opcode::Le: return sa <= sb ? isa::kTrue : isa::kFalse;
      case Opcode::His: return a >= b ? isa::kTrue : isa::kFalse;
      case Opcode::Hi: return a > b ? isa::kTrue : isa::kFalse;
      case Opcode::Lo: return a < b ? isa::kTrue : isa::kFalse;
      case Opcode::Los: return a <= b ? isa::kTrue : isa::kFalse;
      default:
        panic("aluResult: not an ALU opcode");
    }
}

StepResult
ProcessingElement::step()
{
    if (faults_ && faults_->fire(fault::kPeStall)) {
        // Transient stall: cycles pass, no instruction retires, no
        // architectural state changes. The next step re-attempts the
        // same instruction.
        long stall = static_cast<long>(faults_->stallCycles());
        stats_.inc(metric::FaultPeStall);
        stats_.inc(metric::FaultPeStallCycles,
                   static_cast<std::uint64_t>(stall));
        stats_.record(metric::FaultStall,
                      static_cast<std::uint64_t>(stall));
        if (tracer_)
            tracer_->faultInject(clock_ ? *clock_ : 0, peIndex_,
                                 fault::kPeStall,
                                 static_cast<std::uint64_t>(stall));
        return {StepStatus::Executed, stall};
    }
    const isa::DecodedOp &op = code_.at(pc_);
    const Instruction &instr = op.instr;
    Word next_pc = op.nextPc;

    long cycles = kSimpleCycles + kImmWordCycles * (op.sizeWords - 1);
    stats_.inc(metric::PeInstructions);
    pcWritten_ = false;
    // A produced value fans out to dst1 and dst2 and feeds dup.
    auto produce = [&](Word value) {
        writeReg(instr.dst1, value);
        writeReg(instr.dst2, value);
        lastResult_ = value;
    };

    if (isDup(instr.op)) {
        // dup writes go to the memory-resident operand queue, never to
        // the window registers (section 5.3.3).
        memory_.writeWord(windowAddress(instr.dupDst1), lastResult_);
        cycles += kMemoryCycles;
        if (instr.op == Opcode::Dup2 &&
            instr.dupDst2 != instr.dupDst1) {
            memory_.writeWord(windowAddress(instr.dupDst2), lastResult_);
            cycles += kMemoryCycles;
        }
        stats_.inc(metric::PeDups);
        pc_ = next_pc;
        return {StepStatus::Executed, cycles};
    }

    switch (instr.op) {
      case Opcode::Send: {
        Word channel = readSrc(instr.src1, cycles);
        Word value = readSrc(instr.src2, cycles);
        cycles += kChannelCycles;
        if (host_->send(channel, value) == HostStatus::Blocked)
            return {StepStatus::Blocked, cycles};  // retried later
        bumpQp(instr.qpInc);
        stats_.inc(metric::PeSends);
        break;
      }
      case Opcode::Recv: {
        Word channel = readSrc(instr.src1, cycles);
        Word value = 0;
        cycles += kChannelCycles;
        if (host_->recv(channel, value) == HostStatus::Blocked)
            return {StepStatus::Blocked, cycles};
        bumpQp(instr.qpInc);
        produce(value);
        stats_.inc(metric::PeRecvs);
        break;
      }
      case Opcode::Store:
      case Opcode::Storb: {
        Word addr = readSrc(instr.src1, cycles);
        Word value = readSrc(instr.src2, cycles);
        bumpQp(instr.qpInc);
        if (instr.op == Opcode::Store)
            memory_.writeWord(addr, value);
        else
            memory_.writeByte(addr, static_cast<std::uint8_t>(value));
        cycles += kMemoryCycles;
        stats_.inc(metric::PeStores);
        break;
      }
      case Opcode::Fetch:
      case Opcode::Fchb: {
        Word addr = readSrc(instr.src1, cycles);
        bumpQp(instr.qpInc);
        produce(instr.op == Opcode::Fetch ? memory_.readWord(addr)
                                          : memory_.readByte(addr));
        cycles += kMemoryCycles;
        stats_.inc(metric::PeFetches);
        break;
      }
      case Opcode::Bne:
      case Opcode::Beq: {
        Word control = readSrc(instr.src1, cycles);
        Word offset = readSrc(instr.src2, cycles);
        bumpQp(instr.qpInc);
        bool taken = (instr.op == Opcode::Bne) ? control != 0
                                               : control == 0;
        if (taken) {
            next_pc = next_pc + offset;  // wraps mod 2^32 for negatives
            cycles += kBranchTakenCycles;
        }
        stats_.inc(metric::PeBranches);
        break;
      }
      case Opcode::Trap:
      case Opcode::Ftrap: {
        Word number = readSrc(instr.src1, cycles);
        Word argument = readSrc(instr.src2, cycles);
        cycles += kTrapCycles;
        TrapOutcome outcome = host_->trap(number, argument);
        if (outcome.status == HostStatus::Blocked)
            return {StepStatus::Blocked, cycles};
        cycles += outcome.kernelCycles;
        stats_.record(metric::PeTrapService,
                      static_cast<std::uint64_t>(outcome.kernelCycles));
        if (tracer_)
            tracer_->trapEnter(clock_ ? *clock_ : 0, peIndex_, number,
                               outcome.kernelCycles);
        bumpQp(instr.qpInc);
        if (outcome.result)
            produce(*outcome.result);
        stats_.inc(metric::PeTraps);
        if (outcome.endContext) {
            pc_ = next_pc;
            return {StepStatus::ContextEnd, cycles};
        }
        break;
      }
      case Opcode::Fret:
      case Opcode::Rett:
        pc_ = next_pc;
        return {StepStatus::Returned, cycles};
      default: {
        // ALU / logical / comparison class.
        Word a = readSrc(instr.src1, cycles);
        Word b = readSrc(instr.src2, cycles);
        bumpQp(instr.qpInc);
        produce(aluResult(instr.op, a, b));
        stats_.inc(metric::PeAluOps);
        break;
      }
    }

    if (!pcWritten_)
        pc_ = next_pc;
    return {StepStatus::Executed, cycles};
}

} // namespace qm::pe
