/**
 * @file
 * occamc - the OCCAM queue-machine compiler driver (thesis Fig 4.21).
 *
 * Usage: occamc [--asm] [--dot] [--run] [--interp] [--pes N] [--stats]
 *               [--topology SPEC] [--trace out.json]
 *               [--metrics out.json] [--faults SPEC] [--recover]
 *               [--checkpoint-every N] [--checkpoint-file ckpt.qmc]
 *               [--resume ckpt.qmc] [--deadline-ms N]
 *               [--flight PATH|off] [--telemetry FILE]
 *               [--telemetry-every N] file.occ
 *
 * Compiles an OCCAM source file into queue-machine object code and, on
 * request, prints the generated assembly, dumps each context's data-flow
 * graph in Graphviz DOT form (the thesis draw/drawpic role), or runs the
 * program on the simulated multiprocessor and reports statistics.
 * --interp also runs the context graphs on the abstract interpreter
 * (no ISA), to tell a compiler-graph bug from a codegen bug.
 * --trace records a cycle-level event trace of the run and writes it as
 * Chrome trace_event JSON (open in chrome://tracing, Perfetto, or feed
 * it to the qmprof analyzer).
 * --metrics exports the run's full statistics registry (counters,
 * scalars, latency/occupancy histograms) as a schema-versioned JSON
 * document ("-" = stdout; see sim/metrics.hpp).
 * --topology selects the ring-bus shape: "ring" (flat default),
 * "ring:P" (flat with P partitions), or "rings:KxM" (K local rings of
 * M partitions joined by bridges and a backbone; the kernel shards its
 * ready queues, channel map, and placement per local ring).
 * --faults runs under seeded fault injection (see fault::parseFaultPlan
 * for the spec grammar, e.g. "seed=42,rate=0.05,kinds=drop+delay").
 * --recover enables the recovery layer on top of the fault plan
 * (end-to-end retransmission, checksum heal, dedup, fail-stop
 * rollback, and bounded replay from the last checkpoint);
 * --checkpoint-every N adds periodic snapshots on top of the boot one.
 * --checkpoint-file persists every snapshot durably (atomic write) so a
 * killed run can be warm-started with --resume, byte-identically to an
 * uninterrupted run on every deterministic surface (result line, stats,
 * trace, metrics). A corrupt or mismatched --resume file is refused
 * with a one-line diagnostic and the run falls back to a cold start.
 * --deadline-ms bounds the run's host wall-clock time.
 * The flight recorder (src/obs) is always on: every run keeps ring
 * buffers of its most recent scheduling/bus/kernel/fault events, and
 * any failure (watchdog, deadline, structured run failure, fatal
 * error, kernel panic, SIGINT/SIGTERM) dumps them as a qm.flight.v1
 * JSON black box; mp::System writes it.
 * --flight overrides where the dump lands (default: next to the
 * checkpoint/resume/metrics/trace file, else ./qm.flight.json);
 * "--flight off" suppresses the dump file (the in-memory recorder
 * stays on; set QM_FLIGHT=0 to disable recording entirely).
 * --telemetry streams periodic qm.telemetry.v1 NDJSON snapshots of
 * the statistics registry mid-run, one line every --telemetry-every
 * simulated cycles (default 1000); the stream is cycle-deterministic.
 *
 * Exit codes are structured per failure class:
 *   0  success
 *   2  usage / bad arguments / unreadable input
 *   3  OCCAM compile error
 *   4  watchdog trip (simulated watchdog or host deadline)
 *   5  run failed for a structured simulated reason (e.g. lost
 *      message, fault-starved) without recovering
 *   6  fatal error / kernel panic during the run
 *   128+N  interrupted by signal N (SIGINT -> 130, SIGTERM -> 143)
 *      after flushing trace/metrics
 */
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "fault/fault.hpp"
#include "mp/system.hpp"
#include "occam/compiler.hpp"
#include "persist/io.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "support/cli.hpp"
#include "support/shutdown.hpp"
#include "trace/export.hpp"
#include "occam/graph_interp.hpp"
#include "occam/ift.hpp"
#include "occam/parser.hpp"

namespace {

// Structured exit codes, one per failure class (documented above and
// asserted by tests/cli_durability_test.py).
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitCompile = 3;
constexpr int kExitWatchdog = 4;
constexpr int kExitRunFailed = 5;
constexpr int kExitFatal = 6;

int
usage()
{
    std::cerr << "usage: occamc [--asm] [--dot] [--run] [--interp] "
                 "[--pes N] [--stats] "
                 "[--topology ring|ring:P|rings:KxM] "
                 "[--trace out.json] "
                 "[--metrics out.json] [--faults SPEC] [--recover] "
                 "[--checkpoint-every N] [--checkpoint-file ckpt.qmc] "
                 "[--resume ckpt.qmc] [--deadline-ms N] "
                 "[--flight PATH|off] [--telemetry FILE] "
                 "[--telemetry-every N] file.occ\n";
    return kExitUsage;
}

/** Map a finished run onto its exit-code class. */
int
exitCodeFor(const qm::mp::RunResult &result)
{
    if (result.completed)
        return kExitOk;
    if (result.hostAborted) {
        int sig = qm::support::shutdownSignal();
        if (sig > 0)
            return 128 + sig;  // interrupted: flushed, then signal code
        return kExitWatchdog;  // host deadline = a wall-clock watchdog
    }
    if (result.watchdogTripped)
        return kExitWatchdog;
    return kExitRunFailed;
}

} // namespace

int
main(int argc, char **argv)
{
    bool show_asm = false, show_dot = false, run = false,
         stats = false, interp_mode = false;
    int pes = 1;
    bool topology_given = false;
    qm::mp::RingTopology topology;
    qm::sim::RunFlags flags;
    std::string path, trace_path, checkpoint_file, resume_file,
        flight_arg;
    // Malformed flag values are usage errors, never uncaught throws.
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (flags.parse(i, argc, argv)) {
                run = true;  // every run flag implies running
            } else if (arg == "--asm") {
                show_asm = true;
            } else if (arg == "--dot") {
                show_dot = true;
            } else if (arg == "--run") {
                run = true;
            } else if (arg == "--interp") {
                interp_mode = true;
            } else if (arg == "--stats") {
                stats = true;
            } else if (arg == "--pes" && i + 1 < argc) {
                pes = qm::parsePositiveIntArg(argv[++i], "--pes",
                                              /*max=*/4096);
            } else if (arg == "--topology" && i + 1 < argc) {
                topology = qm::mp::parseTopology(argv[++i]);
                topology_given = true;
                run = true;  // a topology only matters for a run
            } else if (arg == "--trace" && i + 1 < argc) {
                trace_path = argv[++i];
                run = true;  // tracing implies running
            } else if (arg == "--checkpoint-file" && i + 1 < argc) {
                checkpoint_file = argv[++i];
                flags.recovery.enabled = true;  // checkpoints need snapshots
                run = true;
            } else if (arg == "--resume" && i + 1 < argc) {
                resume_file = argv[++i];
                flags.recovery.enabled = true;
                run = true;
            } else if (arg == "--flight" && i + 1 < argc) {
                flight_arg = argv[++i];
                run = true;  // the black box only matters for a run
            } else if (!arg.empty() && arg[0] != '-') {
                path = arg;
            } else {
                return usage();
            }
        }
    } catch (const qm::FatalError &e) {
        std::cerr << "occamc: " << e.what() << "\n";
        return usage();
    }
    if (path.empty())
        return usage();

    std::ifstream in(path);
    if (!in) {
        std::cerr << "occamc: cannot open " << path << "\n";
        return kExitUsage;
    }
    std::ostringstream source;
    source << in.rdbuf();

    qm::occam::CompiledProgram program;
    try {
        qm::occam::CompileOptions options;
        options.emitDot = show_dot;
        program = qm::occam::compileOccam(source.str(), options);
    } catch (const std::exception &e) {
        std::cerr << "occamc: " << e.what() << "\n";
        return kExitCompile;
    }

    int exit_code = kExitOk;
    try {
        std::cout << "; " << program.contextCount << " contexts, "
                  << program.object.words.size() << " code words\n";
        if (show_asm)
            std::cout << program.assembly;
        if (show_dot)
            for (const auto &[label, dot] : program.dot)
                std::cout << dot;
        if (run) {
            qm::mp::SystemConfig config;
            config.numPes = pes;
            config.traceConfig.enabled = !trace_path.empty();
            flags.applyTo(config);
            // Black-box dump destination: explicit --flight wins, else
            // land next to whichever artifact the run already writes,
            // else the cwd fallback (failure-only, so a clean run
            // leaves no file behind). "--flight off" keeps the
            // in-memory recorder but never writes the dump.
            std::string flight_path = flight_arg;
            if (flight_path.empty()) {
                if (!checkpoint_file.empty())
                    flight_path = checkpoint_file + ".flight.json";
                else if (!resume_file.empty())
                    flight_path = resume_file + ".flight.json";
                else if (!flags.metricsPath.empty() &&
                         flags.metricsPath != "-")
                    flight_path = flags.metricsPath + ".flight.json";
                else if (!trace_path.empty())
                    flight_path = trace_path + ".flight.json";
                else
                    flight_path = "qm.flight.json";
            }
            if (flight_path == "off")
                flight_path.clear();
            config.flightPath = flight_path;
            // One chance to flush trace/metrics on SIGINT/SIGTERM;
            // the run loop notices the flag and winds down.
            qm::support::installShutdownSignals();
            if (topology_given) {
                config.setTopology(topology);
                std::cout << "topology: "
                          << qm::mp::topologyName(topology) << "\n";
            }
            std::cout << qm::fault::runBanner(flags.faults,
                                              flags.recovery);
            qm::mp::System system(program.object, config);
            std::ofstream telemetry_out;
            if (!flags.telemetryPath.empty()) {
                telemetry_out.open(flags.telemetryPath,
                                   std::ios::out | std::ios::trunc);
                if (!telemetry_out) {
                    std::cerr << "occamc: cannot open telemetry file "
                              << flags.telemetryPath << "\n";
                    return kExitUsage;
                }
                // occamc streams live (one flushed line per boundary)
                // so a killed run still leaves its partial stream;
                // sweeps buffer per-run instead (see sim::runAll).
                system.setTelemetrySink([&](qm::mp::System &s,
                                            qm::mp::Cycle cycle) {
                    telemetry_out << qm::sim::telemetryLine(
                        path, pes, cycle, s.statsSnapshot());
                    telemetry_out.flush();
                });
            }
            if (!checkpoint_file.empty())
                system.setCheckpointSink([&](qm::mp::System &s) {
                    qm::persist::Status st =
                        s.saveCheckpoint(checkpoint_file);
                    if (!st.ok())
                        std::cerr << "occamc: checkpoint save failed: "
                                  << st.toString() << "\n";
                });
            bool resumed = false;
            if (!resume_file.empty()) {
                qm::persist::Status st =
                    system.loadCheckpoint(resume_file);
                if (st.ok()) {
                    resumed = true;
                    // stderr only: a resumed run's stdout must be
                    // byte-identical to an uninterrupted one.
                    std::cerr << "occamc: resumed from " << resume_file
                              << "\n";
                } else {
                    std::cerr << "occamc: cannot resume from "
                              << resume_file << " (" << st.toString()
                              << "); starting cold\n";
                }
            }
            qm::mp::RunResult result;
            try {
                result = resumed ? system.resume()
                                 : system.run(program.mainLabel);
            } catch (const std::exception &) {
                // A fatal error or kernel panic: System wrote the black
                // box before rethrowing; the outer handler reports the
                // error (exit code 6).
                if (!flight_path.empty())
                    std::cerr << "occamc: flight recorder dump -> "
                              << flight_path << "\n";
                throw;
            }
            std::cout << "completed=" << result.completed
                      << " cycles=" << result.cycles
                      << " instructions=" << result.instructions
                      << " contexts=" << result.contexts
                      << " rendezvous=" << result.rendezvous << "\n";
            if (flags.faults.enabled())
                std::cout << "faults: injected="
                          << result.faultsInjected
                          << " recoveries=" << result.faultRecoveries
                          << " watchdog=" << result.watchdogTripped
                          << "\n";
            if (result.replays > 0)
                std::cout << "recovery: " << result.replays
                          << " checkpoint replay(s), "
                          << (result.completed ? "run recovered"
                                               : "run still failed")
                          << "\n";
            if (!result.failureReason.empty())
                std::cout << "failure: " << result.failureReason
                          << "\n";
            exit_code = exitCodeFor(result);
            // stderr only: stdout must stay byte-identical to runs
            // predating the flight recorder.
            if (exit_code != kExitOk && !flight_path.empty())
                std::cerr << "occamc: flight recorder dump -> "
                          << flight_path << "\n";
            std::cout << "breakdown: compute=" << result.computeCycles
                      << " kernel=" << result.kernelCycles
                      << " blocked=" << result.blockedCycles
                      << " bus=" << result.busCycles << "\n";
            if (!trace_path.empty()) {
                qm::trace::writeChromeTraceFile(trace_path,
                                                system.tracer());
                std::cout << "trace: "
                          << system.tracer().events().size()
                          << " events -> " << trace_path << "\n";
                if (system.tracer().dropped() > 0)
                    std::cout << "WARNING: trace truncated ("
                              << system.tracer().dropped()
                              << " events dropped past the cap); "
                                 "trace-derived analyses undercount\n";
            }
            if (!flags.metricsPath.empty()) {
                qm::sim::RunReport report;
                report.pes = pes;
                report.completed = result.completed;
                report.verified = result.completed;
                report.cycles = result.cycles;
                report.traceDropped = result.traceDropped;
                report.stats = system.stats();
                qm::sim::SpeedupSeries series;
                series.name = path;
                series.runs.push_back(std::move(report));
                qm::sim::writeMetricsJson("occamc", {series},
                                          flags.metricsPath);
                if (flags.metricsPath != "-")
                    std::cout << "metrics: -> " << flags.metricsPath
                              << "\n";
            }
            for (const auto &[name, addr] : program.dataMap) {
                std::cout << name << "[0..3] =";
                for (int i = 0; i < 4; ++i)
                    std::cout << " "
                              << static_cast<qm::isa::SWord>(
                                     system.memory().readWord(
                                         addr + static_cast<qm::isa::
                                                    Addr>(i) * 4));
                std::cout << "\n";
            }
            if (stats)
                std::cout << system.stats().render();
        }
        if (interp_mode) {
            // Abstract context-graph interpretation (no ISA): useful
            // to separate compiler-graph bugs from codegen bugs.
            qm::occam::Program ast = qm::occam::parse(source.str());
            qm::occam::SymbolTable table = qm::occam::analyze(ast);
            qm::occam::Ift ift = qm::occam::Ift::build(ast, table);
            qm::occam::ContextProgram ctxs =
                qm::occam::buildContextGraphs(ast, table, ift);
            qm::occam::GraphInterpreter interp(ctxs);
            qm::occam::InterpResult r = interp.run();
            std::cout << "abstract: steps=" << r.steps
                      << " contexts=" << r.contexts
                      << " transfers=" << r.transfers << "\n";
            for (const auto &[name, addr] : program.dataMap) {
                std::cout << name << "[0..3] =";
                for (int i = 0; i < 4; ++i)
                    std::cout << " "
                              << interp.readWord(
                                     addr +
                                     static_cast<qm::isa::Addr>(i) * 4);
                std::cout << "\n";
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "occamc: " << e.what() << "\n";
        return kExitFatal;
    }
    return exit_code;
}
