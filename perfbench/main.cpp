/**
 * @file
 * The benchmark program: `perfbench --workload grid|compile|durable
 * --seed N --seconds S --trace 0|1`.
 *
 * Untraced (--trace 0): set up eleven times (median = setup_s), then run
 * whole passes of timed ops for S seconds and print the end-to-end
 * metrics. Traced (--trace 1): the same loop, but every other pass
 * records spans around each call into a layer; prints per-layer self
 * time and allocations per op, the simulated counts, span coverage of
 * the op wall time, and the tracing overhead measured against the
 * interleaved untraced passes. Every count must repeat exactly across
 * the passes of a run. The last stdout line is the JSON result; the
 * exit code is 0 only when every check passed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/** Taken during static initialisation, as close to exec as we get. */
const std::int64_t kProcessStartNs = nowNs();

constexpr int kSetupRepeats = 11;
/** op_ms_p90 needs ten samples beyond it. */
constexpr std::size_t kMinOps = 100;
constexpr double kMinCoverage = 0.95;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool corrupt = false;
    std::string countsOut;
    std::string workDir = ".bench_build/work";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload grid|compile|durable "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--counts-out FILE] [--work-dir DIR] [--corrupt]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                args.workload = value();
            else if (arg == "--seed")
                args.seed = std::stoull(value());
            else if (arg == "--seconds")
                args.seconds = std::stod(value());
            else if (arg == "--trace") {
                std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                args.trace = v == "1";
            } else if (arg == "--counts-out")
                args.countsOut = value();
            else if (arg == "--work-dir")
                args.workDir = value();
            else if (arg == "--corrupt")
                args.corrupt = true;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (args.workload != "grid" && args.workload != "compile" &&
        args.workload != "durable")
        usage("--workload must be grid, compile or durable");
    if (!(args.seconds > 0 && args.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    return args;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile: @p p of the samples are at or below it. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

int
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return -1;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

/**
 * The exact-count gate: the first op of each (pool index, traced)
 * pair sets the reference, and every later one must match it.
 */
class CountGate
{
  public:
    void
    check(std::size_t index, bool traced, const Counts &counts,
          std::size_t opNumber)
    {
        auto [it, fresh] = reference_.try_emplace({index, traced}, counts);
        if (fresh || !mismatch_.empty())
            return;
        const Counts &ref = it->second;
        for (std::size_t i = 0; i < std::max(ref.size(), counts.size()); ++i) {
            if (i < ref.size() && i < counts.size() &&
                ref[i].first == counts[i].first &&
                ref[i].second == counts[i].second)
                continue;
            std::string name = i < ref.size() ? ref[i].first : counts[i].first;
            mismatch_ = "count " + name + " of op " +
                        std::to_string(opNumber) + " (pool index " +
                        std::to_string(index) + ") is " +
                        (i < counts.size() ? std::to_string(counts[i].second)
                                           : "missing") +
                        ", the first pass had " +
                        (i < ref.size() ? std::to_string(ref[i].second)
                                        : "none");
            return;
        }
    }

    const std::string &mismatch() const { return mismatch_; }

    /** Write the reference counts as one flat JSON object. */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{";
        const char *sep = "\n";
        for (const auto &[key, counts] : reference_)
            for (const auto &[name, value] : counts) {
                out << sep << "  \"" << key.first << "/"
                    << (key.second ? "traced" : "untraced") << "/" << name
                    << "\": " << value;
                sep = ",\n";
            }
        out << "\n}\n";
    }

  private:
    std::map<std::pair<std::size_t, bool>, Counts> reference_;
    std::string mismatch_;
};

/** Span totals of the traced ops, by span name. */
struct LayerTotals
{
    std::map<std::string, std::int64_t> selfNs;
    std::map<std::string, std::uint64_t> selfAllocs;
    std::int64_t coveredNs = 0;
};

/**
 * Fold the spans [first, tracer.size()) of one op into @p totals and
 * return that op's self allocations by span name (for the gate).
 */
Counts
foldSpans(const Tracer &tracer, std::size_t first, LayerTotals &totals)
{
    std::size_t n = tracer.size() - first;
    std::vector<std::int64_t> self(n);
    std::vector<std::int64_t> allocs(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = tracer[first + i];
        self[i] += s.endNs - s.startNs;
        allocs[i] += static_cast<std::int64_t>(s.allocs);
        if (s.parent >= 0) {
            std::size_t p = static_cast<std::size_t>(s.parent) - first;
            self[p] -= s.endNs - s.startNs;
            allocs[p] -= static_cast<std::int64_t>(s.allocs);
        } else {
            totals.coveredNs += s.endNs - s.startNs;
        }
    }
    std::map<std::string, std::uint64_t> opAllocs;
    for (std::size_t i = 0; i < n; ++i) {
        const char *name = tracer[first + i].name;
        totals.selfNs[name] += self[i];
        totals.selfAllocs[name] += static_cast<std::uint64_t>(allocs[i]);
        opAllocs[std::string(name) + ".allocs"] +=
            static_cast<std::uint64_t>(allocs[i]);
    }
    return Counts(opAllocs.begin(), opAllocs.end());
}

/** Write every recorded span, one per line, for offline analysis. */
void
writeSpans(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    out << "op\tname\tstart_ns\tend_ns\tparent\tallocs\n";
    for (std::size_t i = 0; i < tracer.size(); ++i) {
        const Span &s = tracer[i];
        out << s.op << "\t" << s.name << "\t" << s.startNs << "\t" << s.endNs
            << "\t" << s.parent << "\t" << s.allocs << "\n";
    }
}

OpOutcome
runOp(Workload &workload, std::size_t index, Tracer &tracer)
{
    try {
        return workload.op(index, tracer);
    } catch (const std::exception &e) {
        OpOutcome out;
        out.fail(std::string("exception: ") + e.what());
        return out;
    }
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer metrics, in the order BENCHMARK.json lists them. */
const char *const kTimedLayers[] = {
    "occam.parse", "occam.sema",  "occam.ift",     "occam.graph",
    "occam.codegen", "isa.assemble", "mp.construct", "mp.destroy",
    "mp.run",      "persist.save", "persist.load", "mp.resume",
    "sim.telemetry",
};

/** CPU time the hypervisor has stolen from this VM, in clock ticks. */
long long
stealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    long long fields[8] = {};
    stat >> cpu;
    for (long long &f : fields)
        stat >> f;
    return fields[7];
}

/** Everything the timed phase measured. */
struct Timed
{
    std::vector<double> untracedMs, tracedMs;
    std::size_t ops = 0, failed = 0, passes = 0;
    std::uint64_t instructions = 0, runInstructions = 0, cycles = 0;
    std::map<std::string, std::uint64_t> countSums;
    std::string firstFailure;
    double wallS = 0;
    long long steal = 0;
    LayerTotals layers;
    CountGate gate;

    double
    perOp(const std::string &count)
    {
        return static_cast<double>(countSums[count]) /
               static_cast<double>(ops);
    }
};

/**
 * Run whole passes for --seconds, then on until there are enough ops
 * for op_ms_p90, but never past twice --seconds. A traced run traces
 * every other pass and ends on an untraced one.
 */
Timed
runTimed(Workload &workload, Tracer &tracer, const Args &args)
{
    Timed t;
    const std::size_t pool = workload.poolSize();
    const long long steal0 = stealTicks();
    const std::int64_t start = nowNs();
    const auto deadline = start + static_cast<std::int64_t>(args.seconds * 1e9);
    const auto hardDeadline =
        start + static_cast<std::int64_t>(2 * args.seconds * 1e9);
    for (;;) {
        const bool traced = args.trace && t.passes % 2 == 0;
        for (std::size_t index = 0; index < pool; ++index, ++t.ops) {
            std::size_t firstSpan = tracer.size();
            tracer.setOp(traced ? static_cast<int>(t.ops) : -1);
            std::uint64_t a0 = allocCount();
            std::int64_t t0 = nowNs();
            OpOutcome out = runOp(workload, index, tracer);
            std::int64_t t1 = nowNs();
            std::uint64_t opAllocs = allocCount() - a0;
            tracer.setOp(-1);

            double ms = static_cast<double>(t1 - t0) / 1e6;
            (traced ? t.tracedMs : t.untracedMs).push_back(ms);
            if (!out.verified && t.failed++ == 0)
                t.firstFailure = out.failure;
            t.instructions += out.instructions;
            t.cycles += out.cycles;
            addCount(out.counts, "sim_cycles", out.cycles);
            addCount(out.counts, "instructions", out.instructions);
            addCount(out.counts, "op.allocs", opAllocs);
            for (const auto &[name, value] : out.counts)
                t.countSums[name] += value;
            if (traced) {
                t.runInstructions += out.runInstructions;
                Counts spanAllocs = foldSpans(tracer, firstSpan, t.layers);
                out.counts.insert(out.counts.end(), spanAllocs.begin(),
                                  spanAllocs.end());
            }
            t.gate.check(index, traced, out.counts, t.ops);
        }
        ++t.passes;
        std::int64_t now = nowNs();
        bool canStop = !args.trace || t.passes % 2 == 0;
        if (canStop && ((now >= deadline && t.ops >= kMinOps) ||
                        now >= hardDeadline))
            break;
    }
    t.wallS = static_cast<double>(nowNs() - start) / 1e9;
    t.steal = stealTicks() - steal0;
    return t;
}

std::vector<Metric>
endToEndMetrics(const Timed &t, const std::vector<double> &setupS)
{
    std::vector<double> ms = t.untracedMs;
    double ops = static_cast<double>(t.ops);
    return {
        {"setup_s", median(setupS), "s"},
        {"ops_per_s", ops / t.wallS, "op/s"},
        {"op_ms_p50", median(ms), "ms"},
        {"op_ms_p90", percentile(ms, 0.9), "ms"},
        {"sim_mips", static_cast<double>(t.instructions) / t.wallS / 1e6,
         "Minstr/s"},
        {"sim_cycles", static_cast<double>(t.cycles) / ops, "cycles"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"verified_share", (ops - static_cast<double>(t.failed)) / ops,
         "ratio"},
    };
}

/** The traced run's metrics; adds a problem when coverage is short. */
std::vector<Metric>
perLayerMetrics(Timed &t, std::vector<std::string> &problems)
{
    std::vector<Metric> metrics;
    LayerTotals &layers = t.layers;
    const double traced = static_cast<double>(t.tracedMs.size());
    double tracedWallMs = 0, untracedWallMs = 0;
    for (double ms : t.tracedMs)
        tracedWallMs += ms;
    for (double ms : t.untracedMs)
        untracedWallMs += ms;
    auto selfMs = [&](const char *layer) {
        return static_cast<double>(layers.selfNs[layer]) / 1e6 / traced;
    };
    for (const char *layer : kTimedLayers) {
        metrics.push_back({std::string(layer) + ".ms", selfMs(layer), "ms"});
        metrics.push_back({std::string(layer) + ".allocs",
                           static_cast<double>(layers.selfAllocs[layer]) / traced,
                           "count"});
    }
    metrics.push_back({"verify.ms", selfMs("verify"), "ms"});
    metrics.push_back(
        {"mp.run.ns_per_instr",
         t.runInstructions == 0
             ? 0.0
             : static_cast<double>(layers.selfNs["mp.run"]) /
                   static_cast<double>(t.runInstructions),
         "ns/instr"});

    double coveredMs = static_cast<double>(layers.coveredNs) / 1e6;
    double coverage = coveredMs / tracedWallMs;
    if (coverage < kMinCoverage)
        problems.push_back("spans cover " + number(coverage) +
                           " of op wall time, below " + number(kMinCoverage));
    metrics.push_back(
        {"unattributed.ms", (tracedWallMs - coveredMs) / traced, "ms"});
    metrics.push_back({"trace.coverage", coverage, "ratio"});
    // Traced vs untraced ops_per_s over the interleaved passes.
    double tracedRate = traced / tracedWallMs * 1e3;
    double untracedRate =
        static_cast<double>(t.untracedMs.size()) / untracedWallMs * 1e3;
    std::cout << "ops_per_s traced " << number(tracedRate) << ", untraced "
              << number(untracedRate) << "\n";
    metrics.push_back(
        {"trace.overhead", untracedRate / tracedRate - 1.0, "ratio"});

    metrics.push_back({"isa.code_words", t.perOp("isa.code_words"), "words"});
    metrics.push_back({"persist.bytes", t.perOp("persist.bytes"), "B"});
    metrics.push_back({"sys.checkpoints", t.perOp("sys.checkpoints"), "count"});
    metrics.push_back(
        {"sim.telemetry.bytes", t.perOp("sim.telemetry.bytes"), "B"});
    double hits = t.perOp("pe.window_hits");
    double misses = t.perOp("pe.window_misses");
    for (const std::string &name : simCountNames()) {
        if (name == "pe.window_hits")
            metrics.push_back({"pe.window_hit_ratio",
                               hits + misses > 0 ? hits / (hits + misses) : 0.0,
                               "ratio"});
        else if (name != "pe.window_misses" && name != "sys.checkpoints")
            metrics.push_back(
                {name, t.perOp(name),
                 name.find("cycles") != std::string::npos ? "cycles"
                                                          : "count"});
    }
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t mainNs = nowNs();
    Args args = parseArgs(argc, argv);
    WorkloadOptions options;
    options.corrupt = args.corrupt;
    options.trace = args.trace;
    options.workDir = args.workDir;
    std::error_code ec;
    std::filesystem::create_directories(args.workDir, ec);

    // Input generation: not part of set-up.
    std::unique_ptr<Workload> workload;
    try {
        workload = args.workload == "grid"      ? makeGrid(args.seed, options)
                   : args.workload == "compile" ? makeCompile(args.seed, options)
                                                : makeDurable(args.seed, options);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: input generation failed: " << e.what() << "\n";
        return 1;
    }

    Tracer tracer;
    std::vector<std::string> problems;
    std::vector<double> setupS;
    for (int r = 0; r < kSetupRepeats; ++r) {
        std::int64_t t0 = nowNs();
        try {
            workload->prepare();
        } catch (const std::exception &e) {
            std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
            return 1;
        }
        OpOutcome warm = runOp(*workload, 0, tracer);
        std::int64_t elapsed = nowNs() - t0;
        // The first set-up also pays for process start-up.
        if (r == 0)
            elapsed += mainNs - kProcessStartNs;
        setupS.push_back(static_cast<double>(elapsed) / 1e9);
        if (!warm.verified && problems.empty())
            problems.push_back("warm-up op failed: " + warm.failure);
    }

    Timed t = runTimed(*workload, tracer, args);
    if (t.failed > 0)
        problems.push_back(std::to_string(t.failed) + " of " +
                           std::to_string(t.ops) +
                           " ops failed; first: " + t.firstFailure);
    if (!t.gate.mismatch().empty())
        problems.push_back("exact-count mismatch: " + t.gate.mismatch());
    int threads = threadCount();
    if (threads != 1)
        problems.push_back("the workload ran " + std::to_string(threads) +
                           " threads, expected 1");

    std::cout << "perfbench " << args.workload << " seed=" << args.seed
              << " trace=" << args.trace << ": " << t.ops << " ops in "
              << t.passes << " passes of " << workload->poolSize() << ", "
              << number(t.wallS) << " s; op_ms samples "
              << t.untracedMs.size() << "; hypervisor steal "
              << t.steal << " ticks\n";
    std::cout << "setup_s samples:";
    for (double s : setupS)
        std::cout << " " << number(s);
    std::cout << "\n";
    if (!args.trace && t.ops < kMinOps)
        std::cout << "warning: op_ms_p90 needs at least " << kMinOps
                  << " ops\n";
    std::vector<Metric> metrics = args.trace
                                      ? perLayerMetrics(t, problems)
                                      : endToEndMetrics(t, setupS);
    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
    for (const std::string &p : problems)
        std::cout << "FAILED: " << p << "\n";
    if (!args.countsOut.empty())
        t.gate.write(args.countsOut);
    if (args.trace)
        writeSpans(tracer, args.workDir + "/" + args.workload + ".spans.tsv");

    std::ostringstream json;
    json << "{\"correct\": " << (problems.empty() ? "true" : "false")
         << ", \"attempted\": " << t.ops << ", \"failed\": " << t.failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << number(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return problems.empty() ? 0 : 1;
}
