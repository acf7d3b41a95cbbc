/**
 * @file
 * Shared corpus of structured random OCCAM programs (and the fault /
 * recovery plans the chaos suites pair them with), used by the fuzz
 * differential suite and the fault suite: same seeds, same programs,
 * same fault schedules.
 */
#pragma once

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "support/rng.hpp"

namespace qm::fuzz {

/** Generates one random (well-formed, terminating) program per seed. */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : rng(seed) {}

    std::string
    generate()
    {
        os << "var res[8], arr[8]:\n";
        os << "var v0, v1, v2, v3:\n";
        os << "seq\n";
        // Deterministic initialization.
        for (int i = 0; i < 4; ++i)
            line(1, "v" + std::to_string(i) + " := " +
                        std::to_string(rng.range(-9, 9)));
        line(1, "seq zz = [0 for 8]");
        line(2, "arr[zz] := zz * " + std::to_string(rng.range(1, 5)));
        // Random statement soup.
        int budget = 6 + static_cast<int>(rng.below(6));
        for (int i = 0; i < budget; ++i)
            statement(1);
        // Observable results.
        for (int i = 0; i < 4; ++i)
            line(1, "res[" + std::to_string(i) + "] := v" +
                        std::to_string(i));
        for (int i = 0; i < 4; ++i)
            line(1, "res[" + std::to_string(4 + i) + "] := arr[" +
                        std::to_string(static_cast<int>(rng.below(8))) +
                        "]");
        return os.str();
    }

  private:
    void
    line(int depth, const std::string &text)
    {
        for (int i = 0; i < depth; ++i)
            os << "  ";
        os << text << "\n";
    }

    std::string
    var()
    {
        return "v" + std::to_string(rng.below(4));
    }

    /** Array index guaranteed in [0, 8). */
    std::string
    index()
    {
        // ((e \ 4) + 4) \ 8 is always in range even for negative e.
        return "(((" + expr(1) + " \\ 4) + 4) \\ 8)";
    }

    std::string
    expr(int depth)
    {
        if (depth >= 3 || rng.below(3) == 0) {
            switch (rng.below(3)) {
              case 0: return std::to_string(rng.range(-9, 9));
              case 1: return var();
              default: return "arr[" +
                              std::to_string(
                                  static_cast<int>(rng.below(8))) +
                              "]";
            }
        }
        static const char *ops[] = {"+", "-", "*"};
        return "(" + expr(depth + 1) + " " +
               ops[rng.below(3)] + " " + expr(depth + 1) + ")";
    }

    std::string
    condition()
    {
        static const char *rel[] = {"<", ">", "=", "<>", "<=", ">="};
        return "(" + expr(2) + ") " + rel[rng.below(6)] + " (" +
               expr(2) + ")";
    }

    void
    statement(int depth)
    {
        if (depth >= 3) {
            line(depth, var() + " := " + expr(1));
            return;
        }
        switch (rng.below(6)) {
          case 0:
            line(depth, var() + " := " + expr(1));
            return;
          case 1:
            line(depth, "arr[" + index() + "] := " + expr(1));
            return;
          case 2: {
            // Bounded loop via replicated seq.
            std::string i = "i" + std::to_string(fresh++);
            line(depth, "seq " + i + " = [0 for " +
                            std::to_string(rng.range(1, 4)) + "]");
            statement(depth + 1);
            return;
          }
          case 3: {
            line(depth, "if");
            line(depth + 1, condition());
            statement(depth + 2);
            line(depth + 1, "true");  // default arm keeps it total
            statement(depth + 2);
            return;
          }
          case 4: {
            // Par with components writing disjoint scalars.
            line(depth, "par");
            line(depth + 1, "v0 := " + disjointExpr(0));
            line(depth + 1, "v1 := " + disjointExpr(1));
            return;
          }
          default: {
            // Replicated par writing disjoint array slots.
            std::string i = "p" + std::to_string(fresh++);
            line(depth, "par " + i + " = [0 for 4]");
            line(depth + 1, "arr[" + i + "] := " + i + " + " +
                                std::to_string(rng.range(-5, 5)));
            return;
          }
        }
    }

    /** Expression not reading the scalar another component writes. */
    std::string
    disjointExpr(int writer)
    {
        // Reads only v2/v3 and arr, which no par component writes.
        std::string base =
            rng.below(2) == 0 ? "v2" : "v3";
        (void)writer;
        return "(" + base + " + " +
               std::to_string(rng.range(-9, 9)) + ")";
    }

    SplitMix64 rng;
    std::ostringstream os;
    int fresh = 0;
};

/** Program-corpus seed for index @p idx (every corpus shares it). */
inline std::uint64_t
corpusSeed(int idx)
{
    return 0xF00D + static_cast<std::uint64_t>(idx) * 0x9E37;
}

/** PE count the corpora sweep per index. */
inline int
corpusPes(int idx)
{
    return 1 + idx % 4;
}

/**
 * One pinned multi-partition recovery scenario: a machine big enough
 * for a real "rings:KxM" hierarchy plus a fault plan whose recovery
 * (retransmits, fail-stop re-dispatch) must push traffic across ring
 * bridges. Replayed by the fault suite, which must recover exactly.
 */
struct PartitionedRecoverySpec
{
    const char *faults;  ///< fault::parseFaultPlan spec.
    int pes;             ///< Machine size (>= 8: real hierarchies).
    int rings;           ///< K local rings...
    int partitions;      ///< ...of M partitions each.
};

/**
 * The pinned multi-partition recovery corpus. Every entry either kills
 * a PE (homed on a different ring than the boot context, so recovery
 * re-dispatch migrates across a bridge) or loses heavily enough that
 * end-to-end retransmits repeatedly re-cross bridges.
 */
inline const PartitionedRecoverySpec kPartitionedRecoveryCorpus[] = {
    {"seed=3,rate=0.5,kinds=drop,retries=1", 8, 2, 2},
    {"seed=9,rate=0.6,kinds=drop+dup,retries=0", 8, 4, 1},
    {"seed=2,killat=600,killpe=5", 8, 2, 2},
    {"seed=13,rate=0.3,kinds=drop,retries=1,killat=900,killpe=9", 16,
     4, 2},
    {"seed=21,rate=0.5,kinds=drop+dup+corrupt,retries=0,killat=800,"
     "killpe=12", 16, 2, 4},
    {"seed=30,rate=0.4,kinds=drop,retries=0,killat=700,killpe=20", 24,
     8, 1},
};

/**
 * Corpus width: @p fallback by default, overridable with the
 * QM_FUZZ_ITERS environment variable (used by the nightly chaos CI
 * job to soak far wider than a developer checkout).
 */
inline int
fuzzIters(int fallback)
{
    const char *env = std::getenv("QM_FUZZ_ITERS");
    if (env == nullptr || *env == '\0')
        return fallback;
    int iters = std::atoi(env);
    return iters > 0 ? iters : fallback;
}

} // namespace qm::fuzz
