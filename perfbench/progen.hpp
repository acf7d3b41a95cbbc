/**
 * @file
 * Seeded generator of OCCAM programs for the `compile` and `durable`
 * workloads. Each program is a sequence of blocks (replicated seq and
 * par, while, channel pairs, procs with value/var/chan parameters,
 * if, nested expressions) whose final state the generator computes
 * itself while it emits the text, so the expected `res` array comes
 * from an oracle independent of the compiler and the simulator.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Size of a generated program. The block kinds cycle in a fixed order. */
struct ProgramShape
{
    int blocks = 40;     ///< Top-level blocks after the initialisation.
    int loopCount = 6;   ///< Iterations of every loop and channel stream.
    int parWidth = 4;    ///< Instances of every replicated par.
};

struct GeneratedProgram
{
    std::string source;
    /** Expected final contents of the top-level array `res`. */
    std::vector<std::int32_t> expected;
};

/** Top-level array every generated program leaves its results in. */
inline constexpr const char *kResultArray = "res";

/**
 * @p structureSeed draws the program's shape (blocks, operators, the
 * names each expression reads); @p valueSeed draws its constants.
 * Programs of one structure seed differ only in their data, so their
 * simulated work differs only where an `if` takes another arm.
 */
GeneratedProgram generateProgram(std::uint64_t structureSeed,
                                 std::uint64_t valueSeed,
                                 const ProgramShape &shape);

} // namespace perfbench
