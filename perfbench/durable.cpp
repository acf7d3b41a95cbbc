/**
 * @file
 * `durable`: one op is `occamc --checkpoint-file --telemetry` followed
 * by `occamc --resume`. A mid-size generated program of fixed shape,
 * with seeded constants, runs on 8 PEs with recovery snapshots every N
 * cycles, each saved to disk by saveCheckpoint, and a telemetry line
 * every M cycles written to a file. A fresh System then loads the last checkpoint and resumes.
 * Both runs are checked against the generator's oracle, and the
 * resumed run must finish at the same cycle as the uninterrupted one.
 *
 * N and M are fixed in set-up from a checkpoint-free probe run of C
 * cycles: N = 3C/5 and M = C/8, so every op saves the boot snapshot
 * and one periodic one, resumes from the periodic one, and writes
 * about 8 telemetry lines.
 */
#include <sys/stat.h>

#include <fstream>
#include <optional>

#include "progen.hpp"
#include "sim/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qm::mp::Cycle;
using qm::mp::RunResult;
using qm::mp::System;
using qm::mp::SystemConfig;
using qm::occam::CompiledProgram;

constexpr int kPes = 8;
constexpr ProgramShape kShape{18, 24, 8};
/**
 * One fixed program shape; the seed draws only its constants, so every
 * seed checkpoints and resumes the same amount of simulated work.
 */
constexpr std::uint64_t kStructureSeed = 0x5eed;
const char *const kLabel = "durable";

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

/** Flip one byte in the middle of @p path. */
void
flipByte(const std::string &path)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    std::streamoff middle = f.tellg() / 2;
    char c = 0;
    f.seekg(middle);
    f.get(c);
    f.seekp(middle);
    f.put(static_cast<char>(c ^ 0x5a));
}

class Durable : public Workload
{
  public:
    Durable(std::uint64_t seed, const WorkloadOptions &options)
        : gen_(generateProgram(kStructureSeed, seed, kShape)),
          corrupt_(options.corrupt),
          checkpointPath_(options.workDir + "/durable.qmc"),
          telemetryPath_(options.workDir + "/durable.ndjson")
    {}

    void
    prepare() override
    {
        program_ = qm::occam::compileOccam(gen_.source);
        SystemConfig probe;
        probe.numPes = kPes;
        System system(program_.object, probe);
        RunResult result = system.run(program_.mainLabel);
        if (!result.completed || result.cycles < 16)
            throw std::runtime_error("durable: probe run failed: " +
                                     result.failureReason);
        checkpointEvery_ = result.cycles * 3 / 5;
        telemetryEvery_ = result.cycles / 8;
    }

    std::size_t poolSize() const override { return 1; }

    OpOutcome
    op(std::size_t, Tracer &tracer) override
    {
        OpOutcome out;
        std::uint64_t persistBytes = 0, telemetryBytes = 0;
        std::optional<std::ofstream> telemetry;
        {
            ScopedSpan span(tracer, "sim.telemetry");
            telemetry.emplace(telemetryPath_, std::ios::out | std::ios::trunc);
        }

        // The checkpointed, telemetered run.
        std::unique_ptr<System> first;
        {
            ScopedSpan span(tracer, "mp.construct");
            first = std::make_unique<System>(program_.object, config(true));
        }
        first->setTelemetrySink([&](System &s, Cycle cycle) {
            ScopedSpan span(tracer, "sim.telemetry");
            std::string line =
                qm::sim::telemetryLine(kLabel, kPes, cycle, s.statsSnapshot());
            *telemetry << line;
            telemetry->flush();
            telemetryBytes += line.size();
        });
        first->setCheckpointSink([&](System &s) {
            {
                ScopedSpan span(tracer, "persist.save");
                qm::persist::Status st = s.saveCheckpoint(checkpointPath_);
                if (!st.ok())
                    out.fail("saveCheckpoint: " + st.toString());
            }
            ScopedSpan span(tracer, "verify");
            persistBytes += fileBytes(checkpointPath_);
        });
        RunResult ran;
        {
            ScopedSpan span(tracer, "mp.run");
            ran = first->run(program_.mainLabel);
        }
        {
            ScopedSpan span(tracer, "sim.telemetry");
            telemetry.reset();
        }
        {
            ScopedSpan span(tracer, "verify");
            checkRun(out, "checkpointed run", ran, *first, program_,
                     kResultArray, gen_.expected);
            addSimCounts(out.counts, first->stats());
            out.instructions += ran.instructions;
            out.runInstructions += ran.instructions;
            out.cycles += ran.cycles;
        }
        {
            ScopedSpan span(tracer, "mp.destroy");
            first.reset();
        }
        if (corrupt_)
            flipByte(checkpointPath_);

        // The resumed run, from the last checkpoint on disk.
        std::unique_ptr<System> second;
        {
            ScopedSpan span(tracer, "mp.construct");
            second = std::make_unique<System>(program_.object, config(false));
        }
        qm::persist::Status loaded;
        {
            ScopedSpan span(tracer, "persist.load");
            loaded = second->loadCheckpoint(checkpointPath_);
        }
        if (loaded.ok()) {
            RunResult resumed;
            std::uint64_t before = 0;
            {
                ScopedSpan span(tracer, "verify");
                before = second->statsSnapshot().counter("pe.instructions");
            }
            {
                ScopedSpan span(tracer, "mp.resume");
                resumed = second->resume();
            }
            ScopedSpan span(tracer, "verify");
            checkRun(out, "resumed run", resumed, *second, program_,
                     kResultArray, gen_.expected);
            if (resumed.cycles != ran.cycles)
                out.fail("resumed run finished at cycle " +
                         std::to_string(resumed.cycles) + ", uninterrupted at " +
                         std::to_string(ran.cycles));
            addSimCounts(out.counts, second->stats());
            out.instructions += resumed.instructions - before;
            out.cycles += resumed.cycles;
        } else {
            out.fail("loadCheckpoint refused the checkpoint: " +
                     loaded.toString());
        }
        {
            ScopedSpan span(tracer, "mp.destroy");
            second.reset();
        }
        addCount(out.counts, "persist.bytes", persistBytes);
        addCount(out.counts, "sim.telemetry.bytes", telemetryBytes);
        return out;
    }

  private:
    SystemConfig
    config(bool telemetry) const
    {
        SystemConfig c;
        c.numPes = kPes;
        c.recovery.enabled = true;
        c.recovery.checkpointEvery = checkpointEvery_;
        if (telemetry) {
            c.telemetryEvery = telemetryEvery_;
            c.telemetryLabel = kLabel;
        }
        return c;
    }

    GeneratedProgram gen_;
    bool corrupt_;
    std::string checkpointPath_, telemetryPath_;
    CompiledProgram program_;
    Cycle checkpointEvery_ = 0, telemetryEvery_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeDurable(std::uint64_t seed, const WorkloadOptions &options)
{
    return std::make_unique<Durable>(seed, options);
}

} // namespace perfbench
