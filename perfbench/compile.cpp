/**
 * @file
 * `compile`: one op is `occamc --run` on one program of a seeded pool
 * of generated ~300-line programs: compile, construct a default
 * (1-PE) System, run, check `res` against the generator's oracle,
 * destroy. Ops cycle the pool in whole passes.
 *
 * Traced ops call the six compiler phases one by one, in
 * compileOccam's order, each under its own span, and check that the
 * object words equal what compileOccam produced for the same source
 * during set-up. Each phase's span also covers freeing what that phase
 * built, which compileOccam does on return.
 */
#include <optional>

#include "occam/codegen.hpp"
#include "occam/ift.hpp"
#include "occam/parser.hpp"
#include "occam/symbols.hpp"
#include "progen.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qm::mp::RunResult;
using qm::mp::System;
using qm::mp::SystemConfig;
using qm::occam::CompiledProgram;

constexpr std::size_t kPool = 16;
/** About 300 lines: 36 blocks cycle the nine block kinds. */
constexpr ProgramShape kShape{36, 6, 4};

CompiledProgram
compileByPhases(const std::string &source, Tracer &tracer)
{
    namespace oc = qm::occam;
    const oc::CompileOptions options;
    std::optional<oc::Program> program;
    std::optional<oc::SymbolTable> table;
    std::optional<oc::Ift> ift;
    std::optional<oc::ContextProgram> contexts;
    CompiledProgram result;
    {
        ScopedSpan span(tracer, "occam.parse");
        program.emplace(oc::parse(source));
    }
    {
        ScopedSpan span(tracer, "occam.sema");
        table.emplace(oc::analyze(*program));
    }
    {
        ScopedSpan span(tracer, "occam.ift");
        ift.emplace(oc::Ift::build(*program, *table, options.liveAnalysis));
    }
    {
        ScopedSpan span(tracer, "occam.graph");
        oc::BuildOptions build;
        build.inputSequencing = options.inputSequencing;
        contexts.emplace(
            oc::buildContextGraphs(*program, *table, *ift, build));
        result.mainLabel = contexts->mainLabel;
        result.contextCount = static_cast<int>(contexts->contexts.size());
        for (const auto &[symbol, addr] : contexts->dataAddress)
            result.dataMap[table->symbol(symbol).name] = addr;
    }
    {
        ScopedSpan span(tracer, "occam.codegen");
        oc::CodegenOptions codegen;
        codegen.priorityScheduling = options.priorityScheduling;
        codegen.pageWords = options.pageWords;
        result.assembly = oc::generateAssembly(*contexts, codegen);
    }
    {
        ScopedSpan span(tracer, "isa.assemble");
        result.object = qm::isa::assemble(result.assembly);
    }
    // Free the intermediates in compileOccam's order, each charged to
    // the phase that built it.
    {
        ScopedSpan span(tracer, "occam.graph");
        contexts.reset();
    }
    {
        ScopedSpan span(tracer, "occam.ift");
        ift.reset();
    }
    {
        ScopedSpan span(tracer, "occam.sema");
        table.reset();
    }
    {
        ScopedSpan span(tracer, "occam.parse");
        program.reset();
    }
    return result;
}

class Compile : public Workload
{
  public:
    Compile(std::uint64_t seed, const WorkloadOptions &options)
        : trace_(options.trace)
    {
        qm::SplitMix64 seeds(seed);
        for (std::size_t i = 0; i < kPool; ++i) {
            std::uint64_t s = seeds.next();
            pool_.push_back(generateProgram(s, s, kShape));
        }
        if (options.corrupt)
            pool_.front().expected.front() += 1;
    }

    void
    prepare() override
    {
        // The traced run checks its phase-by-phase object code against
        // compileOccam's; the untraced run compiles nothing in set-up.
        if (!trace_ || !reference_.empty())
            return;
        for (const GeneratedProgram &g : pool_)
            reference_.push_back(
                qm::occam::compileOccam(g.source).object.words);
    }

    std::size_t poolSize() const override { return pool_.size(); }

    OpOutcome
    op(std::size_t index, Tracer &tracer) override
    {
        const GeneratedProgram &g = pool_[index];
        OpOutcome out;
        CompiledProgram program = tracer.enabled()
                                      ? compileByPhases(g.source, tracer)
                                      : qm::occam::compileOccam(g.source);
        std::unique_ptr<System> system;
        {
            ScopedSpan span(tracer, "mp.construct");
            system = std::make_unique<System>(program.object, SystemConfig{});
        }
        RunResult result;
        {
            ScopedSpan span(tracer, "mp.run");
            result = system->run(program.mainLabel);
        }
        {
            ScopedSpan span(tracer, "verify");
            std::string name = "program " + std::to_string(index);
            if (tracer.enabled() && program.object.words != reference_[index])
                out.fail(name + ": phase-by-phase object code differs "
                                "from compileOccam's");
            checkRun(out, name, result, *system, program, kResultArray,
                     g.expected);
            addSimCounts(out.counts, system->stats());
            addCount(out.counts, "isa.code_words",
                     program.object.words.size());
            out.instructions = result.instructions;
            out.runInstructions = result.instructions;
            out.cycles = result.cycles;
        }
        {
            ScopedSpan span(tracer, "mp.destroy");
            system.reset();
        }
        return out;
    }

  private:
    bool trace_;
    std::vector<GeneratedProgram> pool_;
    std::vector<std::vector<qm::isa::Word>> reference_;
};

} // namespace

std::unique_ptr<Workload>
makeCompile(std::uint64_t seed, const WorkloadOptions &options)
{
    return std::make_unique<Compile>(seed, options);
}

} // namespace perfbench
