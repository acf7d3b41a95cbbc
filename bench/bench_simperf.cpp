/**
 * @file
 * Host-side performance of the simulator itself (google-benchmark):
 * instruction throughput of a single PE, whole-system simulation rate,
 * compiler throughput (whole, and its codegen and assembler layers),
 * message-cache rendezvous, and the checkpoint save/load round trip.
 * Not a thesis experiment - this guards the usability of the
 * reproduction.
 */
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "isa/assembler.hpp"
#include "mp/system.hpp"
#include "msg/message_cache.hpp"
#include "occam/codegen.hpp"
#include "occam/compiler.hpp"
#include "occam/ift.hpp"
#include "occam/parser.hpp"
#include "occam/symbols.hpp"
#include "pe/memory.hpp"
#include "pe/pe.hpp"
#include "programs/benchmarks.hpp"

using namespace qm;

namespace {

void
BM_PeInstructionRate(benchmark::State &state)
{
    // A tight register loop: measures raw PE step() throughput.
    isa::ObjectCode code = isa::assemble(
        "  plus #100000,#0 :r17\n"
        "loop:\n"
        "  minus r17,#1 :r17\n"
        "  bne r17,@loop\n"
        "  fret\n");
    isa::DecodedProgram decoded(code.words);
    pe::Memory memory(1 << 16);
    pe::NullHost host;
    std::int64_t instructions = 0;
    for (auto _ : state) {
        pe::ProcessingElement pe(memory, decoded, host);
        pe::ContextState ctx;
        ctx.qp = 0x1000;
        ctx.pom = pe::pomForPageWords(64);
        pe.loadContext(ctx);
        while (pe.step().status == pe::StepStatus::Executed)
            ++instructions;
    }
    // SetItemsProcessed takes the total over every iteration (see
    // BM_SimCycles).
    state.SetItemsProcessed(instructions);
}
BENCHMARK(BM_PeInstructionRate)->Unit(benchmark::kMillisecond);

void
BM_CompileMatmul(benchmark::State &state)
{
    for (auto _ : state) {
        occam::CompiledProgram program =
            occam::compileOccam(programs::matmulSource());
        benchmark::DoNotOptimize(program.object.words.data());
    }
}
BENCHMARK(BM_CompileMatmul)->Unit(benchmark::kMillisecond);

/** Cholesky's context graphs: while, if, calls and replicated par. */
struct CholeskyGraphs
{
    occam::Program program = occam::parse(programs::choleskySource());
    occam::SymbolTable table = occam::analyze(program);
    occam::Ift ift = occam::Ift::build(program, table, true);
    occam::ContextProgram contexts =
        occam::buildContextGraphs(program, table, ift, {});
};

void
BM_CompileCodegen(benchmark::State &state)
{
    // Schedule and emit assembly only; the graphs are built once.
    const CholeskyGraphs graphs;
    std::int64_t bytes = 0;
    for (auto _ : state) {
        std::string assembly = occam::generateAssembly(graphs.contexts);
        bytes += static_cast<std::int64_t>(assembly.size());
        benchmark::DoNotOptimize(assembly.data());
    }
    state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_CompileCodegen)->Unit(benchmark::kMicrosecond);

void
BM_Assemble(benchmark::State &state)
{
    // Assemble only; the assembly text is generated once.
    const std::string assembly =
        occam::generateAssembly(CholeskyGraphs().contexts);
    std::int64_t bytes = 0;
    for (auto _ : state) {
        isa::ObjectCode code = isa::assemble(assembly);
        bytes += static_cast<std::int64_t>(assembly.size());
        benchmark::DoNotOptimize(code.words.data());
    }
    state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_Assemble)->Unit(benchmark::kMicrosecond);

void
BM_SimulateMatmul(benchmark::State &state)
{
    occam::CompiledProgram program =
        occam::compileOccam(programs::matmulSource());
    int pes = static_cast<int>(state.range(0));
    std::int64_t instructions = 0;
    for (auto _ : state) {
        mp::SystemConfig config;
        config.numPes = pes;
        mp::System system(program.object, config);
        mp::RunResult result = system.run(program.mainLabel);
        instructions += static_cast<std::int64_t>(result.instructions);
    }
    state.SetItemsProcessed(instructions);
}
BENCHMARK(BM_SimulateMatmul)->Arg(1)->Arg(8)->Unit(
    benchmark::kMillisecond);

/**
 * Simulation rate: items processed is the SIMULATED cycle count, so
 * items/sec reads directly as simulated cycles per host second.
 */
void
BM_SimCycles(benchmark::State &state)
{
    occam::CompiledProgram program =
        occam::compileOccam(programs::matmulSource());
    int pes = static_cast<int>(state.range(0));
    std::int64_t total_cycles = 0;
    for (auto _ : state) {
        mp::SystemConfig config;
        config.numPes = pes;
        mp::System system(program.object, config);
        mp::RunResult result = system.run(program.mainLabel);
        total_cycles += static_cast<std::int64_t>(result.cycles);
    }
    // Accumulated across iterations: SetItemsProcessed is the total
    // for the whole run, so per-iteration counts would divide the rate
    // by the iteration count.
    state.SetItemsProcessed(total_cycles);
}
BENCHMARK(BM_SimCycles)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

/**
 * Message-cache rendezvous: a send then a recv on each of 1,024
 * channels of a fresh cache, so creating and freeing the entries
 * counts, as it does in a run whose channels carry a few tokens each.
 * Items processed is the rendezvous count, accumulated across
 * iterations as in BM_SimCycles.
 */
void
BM_MessageCacheRendezvous(benchmark::State &state)
{
    constexpr isa::Word kChannels = 1024;
    isa::Word value = static_cast<isa::Word>(state.max_iterations);
    std::int64_t rendezvous = 0;
    for (auto _ : state) {
        msg::MessageCache cache;
        for (isa::Word channel = 0; channel < kChannels; ++channel) {
            benchmark::DoNotOptimize(cache.send(channel, 1, value++));
            benchmark::DoNotOptimize(cache.recv(channel, 2));
        }
        rendezvous += kChannels;
    }
    state.SetItemsProcessed(rendezvous);
}
BENCHMARK(BM_MessageCacheRendezvous)->Unit(benchmark::kMicrosecond);

/**
 * Persistence round trip: matmul on 8 PEs with a snapshot every 4000
 * cycles, each saved to a file by the checkpoint sink; a fresh System
 * then loads the last one and resumes to completion. Items processed
 * is the number of snapshots saved, accumulated across iterations as
 * in BM_SimCycles.
 */
void
BM_CheckpointRoundTrip(benchmark::State &state)
{
    occam::CompiledProgram program =
        occam::compileOccam(programs::matmulSource());
    mp::SystemConfig config;
    config.numPes = 8;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 4000;
    std::string path = (std::filesystem::temp_directory_path() /
                        ("bench_simperf_" + std::to_string(::getpid()) +
                         ".qmc"))
                           .string();
    std::int64_t snapshots = 0;
    for (auto _ : state) {
        bool ok = true;
        {
            mp::System system(program.object, config);
            system.setCheckpointSink([&](mp::System &s) {
                ok = s.saveCheckpoint(path).ok() && ok;
                ++snapshots;
            });
            ok = system.run(program.mainLabel).completed && ok;
        }
        mp::System resumed(program.object, config);
        ok = ok && resumed.loadCheckpoint(path).ok();
        mp::RunResult result = ok ? resumed.resume() : mp::RunResult{};
        benchmark::DoNotOptimize(result.cycles);
        if (!result.completed) {
            state.SkipWithError("checkpoint round trip failed");
            break;
        }
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(snapshots);
}
BENCHMARK(BM_CheckpointRoundTrip)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
