/**
 * @file
 * Tests for the queue-machine processing element (thesis Chapter 5):
 * window-register translation, presence bits, queue pages, instruction
 * semantics, and the blocking host protocol.
 */
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "pe/memory.hpp"
#include "pe/pe.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::isa;
using namespace qm::pe;

constexpr Addr kPage = 0x1000;  // queue page base used by the tests

/** Run until fret/rett or @p max_steps instructions. */
long
run(ProcessingElement &pe, int max_steps = 1000)
{
    long cycles = 0;
    for (int i = 0; i < max_steps; ++i) {
        StepResult r = pe.step();
        cycles += r.cycles;
        if (r.status == StepStatus::Returned ||
            r.status == StepStatus::ContextEnd)
            return cycles;
        EXPECT_EQ(r.status, StepStatus::Executed);
    }
    ADD_FAILURE() << "program did not terminate";
    return cycles;
}

/** A PE loaded with @p source on a 64-word queue page at kPage. */
struct Fixture
{
    Memory memory{1 << 16};
    NullHost nullHost;
    ObjectCode code;
    DecodedProgram decoded;
    ProcessingElement pe;

    explicit Fixture(const std::string &source, PeHost *host = nullptr)
        : code(assemble(source)), decoded(code.words),
          pe(memory, decoded, host ? *host : nullHost)
    {
        ContextState state;
        state.pc = 0;
        state.qp = kPage;
        state.pom = pomForPageWords(64);
        pe.loadContext(state);
    }
};

TEST(Memory, WordRoundTripLittleEndian)
{
    Memory memory(64);
    memory.writeWord(8, 0x11223344);
    EXPECT_EQ(memory.readWord(8), 0x11223344u);
    EXPECT_EQ(memory.readByte(8), 0x44);
    EXPECT_EQ(memory.readByte(11), 0x11);
}

TEST(Memory, ChecksAlignmentAndBounds)
{
    Memory memory(64);
    EXPECT_THROW(memory.readWord(2), FatalError);
    EXPECT_THROW(memory.readWord(64), FatalError);
    EXPECT_THROW(memory.readByte(64), FatalError);
}

TEST(Pom, PageSizeEncoding)
{
    EXPECT_EQ(pomForPageWords(32), 0xE0u);
    EXPECT_EQ(pomForPageWords(64), 0xC0u);
    EXPECT_EQ(pomForPageWords(128), 0x80u);
    EXPECT_EQ(pomForPageWords(256), 0x00u);
    EXPECT_EQ(pageWordsForPom(0xE0), 32);
    EXPECT_EQ(pageWordsForPom(0x00), 256);
    EXPECT_THROW(pomForPageWords(16), FatalError);
    EXPECT_THROW(pomForPageWords(48), FatalError);
}

TEST(Pe, ArithmeticWithImmediates)
{
    Fixture f(
        "  plus #3,#4 :r17\n"
        "  minus r17,#10 :r18\n"
        "  mul r18,r18 :r19\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), 7u);
    EXPECT_EQ(static_cast<SWord>(f.pe.readReg(18)), -3);
    EXPECT_EQ(f.pe.readReg(19), 9u);
}

TEST(Pe, QueueDisciplineThesisExample)
{
    // plus++ r0,r1 :r0,r2 consumes two queue operands and fans the sum
    // out to the new front and front+2 (section 5.3.4 example).
    Fixture f(
        "  plus #10,#0 :r0\n"   // queue[0] = 10
        "  plus #20,#0 :r1\n"   // queue[1] = 20
        "  plus++ r0,r1 :r0,r2\n"
        "  fret\n");
    run(f.pe);
    // After the consume, virtual r0/r2 hold 30.
    EXPECT_EQ(f.pe.readReg(0), 30u);
    EXPECT_EQ(f.pe.readReg(2), 30u);
    // QP advanced two words.
    EXPECT_EQ(f.pe.qp(), kPage + 8);
}

TEST(Pe, WindowRegisterTranslationWraps)
{
    Fixture f("  fret\n");
    // With QP at word offset 14 of the page, virtual r3 = physical r1.
    f.pe.setQp(kPage + 14 * 4);
    EXPECT_EQ(f.pe.physicalIndex(0), 14);
    EXPECT_EQ(f.pe.physicalIndex(3), 1);
}

TEST(Pe, WindowAddressWrapsWithinPage)
{
    Fixture f("  fret\n");
    f.pe.setPom(pomForPageWords(32));
    // Word offset 30 within a 32-word page: r5 wraps to word 3.
    f.pe.setQp(kPage + 30 * 4);
    EXPECT_EQ(f.pe.windowAddress(0), kPage + 30 * 4);
    EXPECT_EQ(f.pe.windowAddress(5), kPage + 3 * 4);
}

TEST(Pe, PresenceMissReadsQueuePageMemory)
{
    // Nothing was ever written to r0's register: the operand must come
    // from the memory-resident queue page.
    Fixture f(
        "  plus r0,#1 :r17\n"
        "  fret\n");
    f.memory.writeWord(kPage, 41);
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), 42u);
    EXPECT_EQ(f.pe.stats().counter("pe.window_misses"), 1u);
}

TEST(Pe, DupWritesMemoryResidentQueue)
{
    // dup stores the previous result into the queue page in memory,
    // even for offsets under 16 (section 5.3.3).
    Fixture f(
        "  plus #5,#6 :r0 >\n"
        "  dup2 :r3,r30\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.memory.readWord(kPage + 3 * 4), 11u);
    EXPECT_EQ(f.memory.readWord(kPage + 30 * 4), 11u);
    // r0 was written as a register destination; r3 only in memory.
    EXPECT_TRUE(f.pe.presence(f.pe.physicalIndex(0)));
    EXPECT_FALSE(f.pe.presence(f.pe.physicalIndex(3)));
}

TEST(Pe, QpIncrementClearsPresence)
{
    Fixture f(
        "  plus #1,#0 :r0\n"
        "  plus #2,#0 :r1\n"
        "  plus++ r0,r1 :r17\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), 3u);
    // Physical registers that held r0/r1 slid out and were cleared.
    EXPECT_FALSE(f.pe.presence(14 & 0xF));
}

TEST(Pe, MemoryFetchAndStore)
{
    Fixture f(
        "  plus #4096,#512 :r17\n"   // address 0x1200
        "  store r17,#77\n"
        "  fetch r17 :r18\n"
        "  storb r17,#5\n"
        "  fchb r17 :r19\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(18), 77u);
    EXPECT_EQ(f.pe.readReg(19), 5u);
}

TEST(Pe, ComparisonsProduceBooleanWords)
{
    Fixture f(
        "  lt #-3,#4 :r17\n"
        "  gt #-3,#4 :r18\n"
        "  his #-1,#1 :r19\n"   // unsigned: 0xFFFFFFFF >= 1
        "  eq #7,#7 :r20\n"
        "  le #7,#7 :r21\n"
        "  ne #7,#7 :r22\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), kTrue);
    EXPECT_EQ(f.pe.readReg(18), kFalse);
    EXPECT_EQ(f.pe.readReg(19), kTrue);
    EXPECT_EQ(f.pe.readReg(20), kTrue);
    EXPECT_EQ(f.pe.readReg(21), kTrue);
    EXPECT_EQ(f.pe.readReg(22), kFalse);
}

TEST(Pe, ShiftsAreArithmetic)
{
    Fixture f(
        "  lshift #1,#4 :r17\n"
        "  rshift #-16,#2 :r18\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), 16u);
    EXPECT_EQ(static_cast<SWord>(f.pe.readReg(18)), -4);
}

TEST(Pe, BranchLoopComputesSum)
{
    // Sum 1..5 with a conventional register loop (the thesis design goal
    // of supporting Von Neumann-style execution alongside queue mode).
    Fixture f(
        "  plus #0,#0 :r17\n"    // sum = 0
        "  plus #5,#0 :r18\n"    // i = 5
        "loop:\n"
        "  plus r17,r18 :r17\n"
        "  minus r18,#1 :r18\n"
        "  bne r18,@loop\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), 15u);
    EXPECT_EQ(f.pe.readReg(18), 0u);
}

TEST(Pe, BeqBranchesOnFalse)
{
    Fixture f(
        "  eq #1,#2 :r17\n"
        "  beq r17,@skip\n"
        "  plus #99,#0 :r18\n"   // skipped
        "skip:\n"
        "  plus #7,#0 :r19\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(18), 0u);
    EXPECT_EQ(f.pe.readReg(19), 7u);
}

TEST(Pe, DivisionByZeroIsFatal)
{
    Fixture f("  div #1,#0 :r17\n  fret\n");
    EXPECT_THROW(run(f.pe), FatalError);
}

TEST(Pe, MulWrapsModulo2To32)
{
    Fixture f(
        "  mul #65536,#65536 :r17\n"
        "  mul #65537,#65537 :r18\n"
        "  mul #-2147483648,#-1 :r19\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), 0u);
    EXPECT_EQ(f.pe.readReg(18), 0x20001u);  // 2^32 + 2^17 + 1
    EXPECT_EQ(f.pe.readReg(19), 0x80000000u);
}

TEST(Pe, MinIntDividedByMinusOneWraps)
{
    Fixture f(
        "  div #-2147483648,#-1 :r17\n"
        "  div #-7,#-1 :r18\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), 0x80000000u);
    EXPECT_EQ(static_cast<SWord>(f.pe.readReg(18)), 7);
}

TEST(Pe, MinIntRemainderMinusOneIsZero)
{
    Fixture f(
        "  rem #-2147483648,#-1 :r17\n"
        "  rem #-7,#-1 :r18\n"
        "  rem #-7,#2 :r19\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(17), 0u);
    EXPECT_EQ(f.pe.readReg(18), 0u);
    EXPECT_EQ(static_cast<SWord>(f.pe.readReg(19)), -1);
}

TEST(Pe, RollOutWritesPresentRegistersToQueuePage)
{
    Fixture f(
        "  plus #21,#0 :r0\n"
        "  plus #22,#0 :r1\n"
        "  fret\n");
    run(f.pe);
    long cycles = f.pe.rollOut();
    EXPECT_GT(cycles, 0);
    EXPECT_EQ(f.memory.readWord(kPage), 21u);
    EXPECT_EQ(f.memory.readWord(kPage + 4), 22u);
    EXPECT_FALSE(f.pe.presence(0));
    EXPECT_FALSE(f.pe.presence(1));
}

TEST(Pe, SaveAndLoadContextRoundTrip)
{
    Fixture f(
        "  plus #5,#0 :r0\n"
        "  plus #9,#0 :r17\n"
        "  fret\n");
    run(f.pe);
    ContextState saved = f.pe.saveContext();
    EXPECT_EQ(saved.generals[0], 9u);

    // Clobber and restore; the rolled-out window operand must come back
    // through memory on demand (presence bits start cleared).
    ContextState other;
    other.pc = 0;
    other.qp = 0x2000;
    other.pom = pomForPageWords(64);
    f.pe.loadContext(other);
    f.pe.loadContext(saved);
    EXPECT_EQ(f.pe.readReg(17), 9u);
    EXPECT_EQ(f.pe.readReg(0), 5u);  // via the queue page in memory
}

/** Host that records channel traffic and can simulate blocking. */
class RecordingHost : public PeHost
{
  public:
    std::vector<std::pair<Word, Word>> sends;
    std::vector<Word> recvValues;
    int blockCount = 0;  ///< Number of times to report Blocked first.

    HostStatus
    send(Word channel, Word value) override
    {
        if (blockCount > 0) {
            --blockCount;
            return HostStatus::Blocked;
        }
        sends.emplace_back(channel, value);
        return HostStatus::Done;
    }

    HostStatus
    recv(Word, Word &value) override
    {
        if (blockCount > 0) {
            --blockCount;
            return HostStatus::Blocked;
        }
        value = recvValues.back();
        recvValues.pop_back();
        return HostStatus::Done;
    }

    TrapOutcome
    trap(Word number, Word argument) override
    {
        TrapOutcome outcome;
        if (number == 99) {
            outcome.result = argument + 1;
        } else if (number == 0) {
            outcome.endContext = true;
        }
        return outcome;
    }
};

TEST(Pe, SendDeliversChannelAndValue)
{
    RecordingHost host;
    Fixture f("  send #7,#42\n  fret\n", &host);
    ProcessingElement &pe = f.pe;
    run(pe);
    ASSERT_EQ(host.sends.size(), 1u);
    EXPECT_EQ(host.sends[0], (std::pair<Word, Word>{7, 42}));
}

TEST(Pe, BlockedSendLeavesPcForRetry)
{
    RecordingHost host;
    host.blockCount = 2;
    Fixture f("  send #7,#42\n  fret\n", &host);
    ProcessingElement &pe = f.pe;

    EXPECT_EQ(pe.step().status, StepStatus::Blocked);
    EXPECT_EQ(pe.pc(), 0u);  // not consumed
    EXPECT_EQ(pe.step().status, StepStatus::Blocked);
    EXPECT_EQ(pe.step().status, StepStatus::Executed);
    ASSERT_EQ(host.sends.size(), 1u);
}

TEST(Pe, RecvWritesDestination)
{
    RecordingHost host;
    host.recvValues = {123};
    Fixture f("  recv #5 :r17\n  fret\n", &host);
    ProcessingElement &pe = f.pe;
    run(pe);
    EXPECT_EQ(pe.readReg(17), 123u);
}

TEST(Pe, TrapWritesResultsAndEndsContext)
{
    RecordingHost host;
    Fixture f("  trap #99,#10 :r17,r18\n  trap #0,#0\n", &host);
    ProcessingElement &pe = f.pe;

    EXPECT_EQ(pe.step().status, StepStatus::Executed);
    // The trap result fans out to both destinations, like any other op.
    EXPECT_EQ(pe.readReg(17), 11u);
    EXPECT_EQ(pe.readReg(18), 11u);
    EXPECT_EQ(pe.step().status, StepStatus::ContextEnd);
}

TEST(Pe, WritesToDummyAreDiscarded)
{
    Fixture f(
        "  plus #1,#2 :dummy\n"
        "  fret\n");
    run(f.pe);
    EXPECT_EQ(f.pe.readReg(RegDummy), 0u);
}

TEST(Pe, NullHostRejectsChannelUse)
{
    Fixture f("  send #1,#2\n  fret\n");
    EXPECT_THROW(run(f.pe), FatalError);
}

} // namespace
