/**
 * @file
 * Queue-machine processing element (thesis Chapter 5).
 *
 * The PE executes the Table 5.2 instruction set over 32 registers:
 * R0..R15 are virtual window registers - the first 16 elements of the
 * memory-resident operand queue, translated through the queue pointer
 * (QP) and page offset mask (POM) - and R16..R31 are globals including
 * DUMMY, NAR, POM, QP, and PC.
 *
 * Each window register carries a presence bit. Reading a virtual window
 * register with its presence bit set hits the register file; otherwise
 * the operand comes from the queue page in memory (costing memory
 * cycles, per the Fig 5.10 timing classes). The QP increment field of
 * every instruction slides the window, clearing presence bits.
 *
 * Channel operations (send/recv) and traps (rfork/ifork/exit/...)
 * delegate to a PeHost, which the multiprocessing kernel implements.
 * When the host reports Blocked the instruction is not consumed: PC, QP
 * and presence bits are untouched, so the kernel can re-run the context
 * later (the thesis Fig 6.4 context state machine).
 */
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "fault/fault.hpp"
#include "isa/instruction.hpp"
#include "pe/memory.hpp"
#include "support/metric_catalog.hpp"
#include "trace/trace.hpp"

namespace qm::pe {

/** Host services status for blocking operations. */
enum class HostStatus
{
    Done,     ///< Operation completed; execution continues.
    Blocked,  ///< Cannot complete now; re-execute this instruction later.
};

/** Outcome of a kernel trap. */
struct TrapOutcome
{
    HostStatus status = HostStatus::Done;
    /** Result value, fanned out to dst1 and dst2 like any other op. */
    std::optional<Word> result;
    bool endContext = false;      ///< Context finished (kernel exit).
    long kernelCycles = 0;        ///< Extra cycles charged by the kernel.
};

/** Services the PE requires from its environment (the kernel). */
class PeHost
{
  public:
    virtual ~PeHost() = default;

    /** Channel output: blocks until a matching receive rendezvous. */
    virtual HostStatus send(Word channel, Word value) = 0;

    /** Channel input: blocks until a matching send rendezvous. */
    virtual HostStatus recv(Word channel, Word &value) = 0;

    /** Kernel entry via trap/ftrap (thesis Table 6.1 entry points). */
    virtual TrapOutcome trap(Word number, Word argument) = 0;
};

/** Simple host for standalone tests: channels and traps are errors. */
class NullHost : public PeHost
{
  public:
    HostStatus send(Word, Word) override;
    HostStatus recv(Word, Word &) override;
    TrapOutcome trap(Word, Word) override;
};

/** Result of executing one instruction. */
enum class StepStatus
{
    Executed,    ///< Instruction retired normally.
    Blocked,     ///< Channel/trap blocked; instruction not consumed.
    ContextEnd,  ///< Kernel exit trap: the context is finished.
    Returned,    ///< fret/rett executed (standalone-program halt).
};

struct StepResult
{
    StepStatus status = StepStatus::Executed;
    long cycles = 0;  ///< Cycles charged for this step.
};

// Instruction timing classes (Fig 5.9/5.10), in cycles. Part of the
// modelled machine: mp::configFingerprint records them, so a checkpoint
// saved by a build with other costs is refused.
constexpr long kSimpleCycles = 1;        ///< ALU/logic/compare/dup issue.
constexpr long kImmWordCycles = 1;       ///< Extra fetch per immediate word.
constexpr long kMemoryCycles = 2;        ///< Extra cost of a memory access.
constexpr long kBranchTakenCycles = 1;   ///< Refill after a taken branch.
constexpr long kChannelCycles = 2;       ///< Handoff to the message processor.
constexpr long kTrapCycles = 2;          ///< Trap entry overhead.
constexpr long kRollOutCyclesPerReg = 2; ///< Context-switch write-back.

/**
 * Saved architectural state of a context (window registers are rolled
 * out to the queue page, so only the globals travel).
 */
struct ContextState
{
    Word pc = 0;
    Word qp = 0;
    Word pom = 0xF0;  ///< Default: 16-word pages... see defaultPom().
    Word nar = 0;
    /**
     * Last produced value (feeds dup). Architectural: a context may be
     * preempted at any instruction boundary (checkpoint quiesce), and
     * a dup after resume must still see its producer's result.
     */
    Word lastResult = 0;
    std::array<Word, 11> generals{};  ///< R17..R27.
};

/** POM value selecting a 2^m-word queue page (m in [5, 8]). */
Word pomForPageWords(int words);

/** Queue page size in words selected by @p pom. */
int pageWordsForPom(Word pom);

/** The queue-machine processing element. */
class ProcessingElement
{
  public:
    /** Every fetch goes through @p code (shared by a System's PEs). */
    ProcessingElement(Memory &memory, isa::DecodedProgram &code,
                      PeHost &host);

    /**
     * Attach the system's event recorder. @p clock points at this PE's
     * scheduling clock so trap entries carry absolute cycle stamps
     * (the PE itself only counts per-step cycles).
     */
    void
    attachTrace(trace::Tracer *tracer, int peIndex,
                const trace::Cycle *clock)
    {
        tracer_ = tracer;
        peIndex_ = peIndex;
        clock_ = clock;
    }

    /**
     * Attach the system's fault injector (may be null). With PE stalls
     * enabled, step() may charge stall cycles without retiring an
     * instruction (a transient hardware hiccup); the stall lands in
     * the run report's blocked-cycle bucket.
     */
    void setFaultInjector(fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /** Load a context's registers; presence bits start cleared. */
    void loadContext(const ContextState &state);

    /** Save registers after rolling the window out to memory. */
    ContextState saveContext();

    /**
     * Roll out every present window register to its queue-page address
     * (the context-switch write-back). Returns cycles charged.
     */
    long rollOut();

    /** Execute one instruction. */
    StepResult step();

    // Architectural state access (for the kernel and for tests).
    Word pc() const { return pc_; }
    Word qp() const { return qp_; }
    void setQp(Word qp) { qp_ = qp; }
    Word pom() const { return pom_; }
    void setPom(Word pom) { pom_ = pom; }
    Word readReg(int reg);           ///< Read any register (no consume).
    void writeReg(int reg, Word value);
    bool presence(int physical) const
    {
        return presence_[static_cast<size_t>(physical)];
    }

    /** Memory address of virtual window register @p n (Fig 5.5). */
    Addr windowAddress(int n) const;

    /** Physical register index backing virtual register @p n (Fig 5.3). */
    int physicalIndex(int n) const;

    /** This PE's statistics, recorded by catalog ID (metric::Owner::Pe). */
    using Stats = StatBlock<metric::Owner::Pe>;
    const Stats &statBlock() const { return stats_; }
    Stats &statBlock() { return stats_; }

    StatSet stats() const { return stats_.folded(); }

  private:
    Word readSrc(const isa::Src &src, long &cycles);
    void bumpQp(int inc);
    Word aluResult(isa::Opcode op, Word a, Word b);

    Memory &memory_;
    isa::DecodedProgram &code_;
    PeHost *host_;

    // Trace attachment (null/zero when the PE runs standalone).
    trace::Tracer *tracer_ = nullptr;
    int peIndex_ = -1;
    const trace::Cycle *clock_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;

    // Architectural state.
    Word pc_ = 0;
    Word qp_ = 0;
    Word pom_ = 0;
    Word nar_ = 0;
    std::array<Word, 16> window_{};   ///< Physical window registers.
    std::array<bool, 16> presence_{};
    std::array<Word, 16> globals_{};  ///< R16..R31 (QP/POM/PC shadowed).
    Word lastResult_ = 0;             ///< Feeds dup instructions.
    bool pcWritten_ = false;          ///< A dst wrote PC this step.

    Stats stats_;
};

} // namespace qm::pe
