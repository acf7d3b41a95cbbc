#include "sim/journal.hpp"

#include <cstdint>

#include "persist/state_codec.hpp"
#include "support/format.hpp"

namespace qm::sim {

namespace {

// Version 2 appended the buffered telemetry stream and flight-dump
// path to each row; a v1 journal fails the magic check and is rebuilt
// from scratch (it is only a cache of deterministic results).
constexpr const char *kJournalMagic = "QMSWJNL2";

/** A journal row's wire layout, for encodeRunReport and decodeRunReport. */
template <class Ar, class R>
void
fields(Ar &ar, R &r)
{
    // Two retired slots, from a whole-run retry layer: the attempt
    // count, always 1, and the quarantine flag, always 0. Rows keep
    // their bytes; a row holding anything else is refused.
    std::int64_t attempts = 1;
    bool quarantined = false;

    ar.i64(r.pes);
    ar.u8(r.completed);
    ar.u8(r.verified);
    ar.i64(r.cycles);
    ar.u64(r.instructions);
    ar.u64(r.contexts);
    ar.u64(r.rendezvous);
    ar.u64(r.contextSwitches);
    ar.f64(r.utilization);
    ar.i64(r.computeCycles);
    ar.i64(r.kernelCycles);
    ar.i64(r.blockedCycles);
    ar.i64(r.busCycles);
    ar.u8(r.watchdogTripped);
    ar.str(r.failureReason);
    ar.u64(r.faultsInjected);
    ar.u64(r.faultRecoveries);
    ar.u8(r.recovered);
    ar.i64(r.replays);
    std::uint64_t kinds = r.faultKinds.size();
    ar.u64(kinds, kinds, kinds, "fault-kind count");
    for (auto &k : r.faultKinds) {
        ar.u64(k.injected);
        ar.u64(k.detected);
        ar.u64(k.recovered);
    }
    ar.u64(r.traceDropped);
    ar.i64(attempts, 1, 1, "retired attempts slot");
    ar.u8(quarantined, false, "retired quarantine slot");
    ar.u8(r.hostAborted);
    persist::statSet(ar, r.stats);
    // Host performance figures ride along so --host-time output is
    // stable across a resume (they describe the attempt that actually
    // simulated the row, which is exactly what the journal replays).
    ar.f64(r.hostWallMs);
    ar.f64(r.simCyclesPerSec);
    // v2: replayed rows keep their telemetry stream (so the NDJSON
    // file is identical across a resume) and their black-box path.
    ar.str(r.telemetry);
    ar.str(r.flightDumpPath);
}

} // namespace

void
encodeRunReport(persist::Encoder &enc, const RunReport &report)
{
    fields(enc, report);
}

RunReport
decodeRunReport(persist::Decoder &dec)
{
    RunReport report;
    fields(dec, report);
    return report;
}

std::string
sweepFingerprint(const std::string &label,
                 const std::vector<RunSpec> &specs)
{
    persist::Encoder digest;
    for (const RunSpec &spec : specs) {
        mp::SystemConfig cfg = spec.config;
        cfg.numPes = spec.pes;  // runOnce overrides the same way
        digest.str(mp::configFingerprint(cfg));
        const auto &words = spec.program->object.words;
        digest.u32(persist::crc32(words.data(),
                                  words.size() * sizeof(isa::Word)));
        digest.str(spec.resultArray);
        digest.u64(spec.expected.size());
        for (std::int32_t v : spec.expected)
            digest.i64(v);
    }
    return cat(label, ";specs=", specs.size(), ";digest=",
               persist::crc32(digest.bytes().data(),
                              digest.bytes().size()));
}

persist::Status
SweepJournal::open(const std::string &path, const std::string &label,
                   const std::vector<RunSpec> &specs)
{
    using persist::ErrCode;
    using persist::Status;
    std::lock_guard<std::mutex> lock(mu_);
    done_.assign(specs.size(), std::nullopt);
    recreated_ = false;
    std::string fingerprint = sweepFingerprint(label, specs);

    std::vector<std::vector<std::uint8_t>> records;
    Status read = persist::readJournal(path, kJournalMagic, fingerprint,
                                       records);
    if (read.code == ErrCode::Mismatch)
        return read;  // valid journal, different sweep: refuse
    bool truncate = false;
    if (!read.ok() && read.code != ErrCode::Io) {
        // Unreadable header: the journal is a cache of deterministic
        // results, so start over rather than refuse the whole sweep.
        recreated_ = true;
        truncate = true;
        records.clear();
    }
    for (const std::vector<std::uint8_t> &payload : records) {
        persist::Decoder dec(payload);
        std::uint64_t index = dec.u64();
        RunReport report = decodeRunReport(dec);
        // Every record passed its CRC, so failures here mean a format
        // drift; skip the row (it will simply be re-run) rather than
        // trusting a misdecoded report.
        if (!dec.ok() || !dec.atEnd() || index >= done_.size())
            continue;
        report.journalReplayed = true;
        done_[index] = std::move(report);
    }
    return writer_.open(path, kJournalMagic, fingerprint, truncate);
}

bool
SweepJournal::has(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index < done_.size() && done_[index].has_value();
}

const RunReport &
SweepJournal::get(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return *done_[index];
}

persist::Status
SweepJournal::record(std::size_t index, const RunReport &report)
{
    persist::Encoder enc;
    enc.u64(index);
    encodeRunReport(enc, report);
    std::lock_guard<std::mutex> lock(mu_);
    if (!writer_.isOpen())
        return persist::Status::error(persist::ErrCode::Io,
                                      "journal is not open");
    return writer_.append(enc.bytes());
}

std::size_t
SweepJournal::completedCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &row : done_)
        n += row.has_value() ? 1 : 0;
    return n;
}

} // namespace qm::sim
