#include "sim/bench_json.hpp"

#include <fstream>

#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace qm::sim {

std::string
writeBenchJson(const std::string &bench,
               const std::vector<SpeedupSeries> &series,
               const std::string &path, bool host_time)
{
    std::string out_path =
        path.empty() ? "BENCH_" + bench + ".json" : path;
    std::ofstream out(out_path);
    fatalIf(!out, "cannot open bench report file: ", out_path);

    JsonWriter json(out);
    json.beginObject();
    json.key("bench").value(bench);
    json.key("series").beginArray();
    for (const SpeedupSeries &s : series) {
        json.beginObject();
        json.key("name").value(s.name);
        json.key("runs").beginArray();
        for (std::size_t i = 0; i < s.runs.size(); ++i) {
            const RunReport &run = s.runs[i];
            json.beginObject()
                .key("pes").value(run.pes)
                .key("completed").value(run.completed)
                .key("verified").value(run.verified)
                .key("cycles").value(run.cycles)
                .key("instructions").value(run.instructions)
                .key("contexts").value(run.contexts)
                .key("rendezvous").value(run.rendezvous)
                .key("context_switches").value(run.contextSwitches)
                .key("utilization").value(run.utilization)
                .key("compute_cycles").value(run.computeCycles)
                .key("kernel_cycles").value(run.kernelCycles)
                .key("blocked_cycles").value(run.blockedCycles)
                .key("bus_cycles").value(run.busCycles);
            // Host-side simulator speed, opt-in: machine-dependent, so
            // it never appears in the determinism-compared documents.
            if (host_time && run.hostWallMs >= 0.0) {
                json.key("host_wall_ms").value(run.hostWallMs);
                if (run.simCyclesPerSec >= 0.0)
                    json.key("sim_cycles_per_sec")
                        .value(run.simCyclesPerSec);
            }
            // Fault/failure fields appear only when set, so fault-free
            // reports stay byte-identical to the historical format.
            if (run.watchdogTripped)
                json.key("watchdog_tripped").value(true);
            if (!run.failureReason.empty())
                json.key("failure_reason").value(run.failureReason);
            if (run.faultsInjected > 0)
                json.key("faults_injected").value(run.faultsInjected);
            if (run.faultRecoveries > 0)
                json.key("fault_recoveries").value(run.faultRecoveries);
            if (run.recovered)
                json.key("recovered").value(true);
            if (run.replays > 0)
                json.key("replays").value(run.replays);
            // Non-zero only when a trace was recorded AND truncated:
            // flags that trace-derived analyses undercount this run.
            if (run.traceDropped > 0)
                json.key("trace_dropped").value(run.traceDropped);
            // Per-kind breakdown, only for kinds that actually fired.
            bool any_kind = false;
            for (const auto &kc : run.faultKinds)
                if (kc.injected > 0 || kc.detected > 0 ||
                    kc.recovered > 0)
                    any_kind = true;
            if (any_kind) {
                json.key("faults").beginObject();
                for (std::size_t k = 0; k < run.faultKinds.size();
                     ++k) {
                    const auto &kc = run.faultKinds[k];
                    if (kc.injected == 0 && kc.detected == 0 &&
                        kc.recovered == 0)
                        continue;
                    json.key(fault::toString(
                                 static_cast<fault::FaultKind>(1u << k)))
                        .beginObject()
                        .key("injected").value(kc.injected)
                        .key("detected").value(kc.detected)
                        .key("recovered").value(kc.recovered)
                        .endObject();
                }
                json.endObject();
            }
            if (run.cycles > 0 && !s.runs.empty() &&
                s.runs.front().cycles > 0)
                json.key("throughput_ratio").value(s.ratio(i));
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
    return out_path;
}

} // namespace qm::sim
