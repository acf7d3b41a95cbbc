/**
 * @file
 * `grid`: one op runs the 48 cells `bench_ch6_speedup --jobs 1` runs -
 * matmul, FFT, Cholesky, congruence and both Fig 6.9 fan-outs, each on
 * 1-8 PEs - in the same order, each cell constructing, running,
 * verifying and destroying its own System. The seed only replaces the
 * programs' input constants; seed 0 keeps the thesis constants, so the
 * programs are the embedded sources verbatim.
 */
#include <stdexcept>

#include "programs/benchmarks.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qm::mp::RunResult;
using qm::mp::System;
using qm::mp::SystemConfig;
using qm::occam::CompiledProgram;

constexpr int kMaxPes = 8;

/** The input constants of the six programs (thesis values by default). */
struct Constants
{
    int matA = 2, matB = 3;       // a = i + matA*j, b = matB*i - j
    int fftMul = 3, fftMod = 11;  // x = (i*i + fftMul*i) \ fftMod
    int cholDiag = 1;             // g = (i - j) + cholDiag below the diagonal
    int congDiag = 7, congMod = 3;
    int fanBase = 0;              // recursive fan-out's starting depth
    int fanDepth = 4;             // iterative fan-out's leaf offset
};

Constants
seededConstants(std::uint64_t seed)
{
    Constants c;
    if (seed == 0)
        return c;
    qm::SplitMix64 rng(seed);
    auto draw = [&](int lo, int hi) {
        return static_cast<int>(rng.range(lo, hi));
    };
    c.matA = draw(2, 9);
    c.matB = draw(2, 9);
    c.fftMul = draw(2, 9);
    c.fftMod = draw(7, 13);
    c.cholDiag = draw(1, 3);
    c.congDiag = draw(2, 9);
    c.congMod = draw(2, 5);
    c.fanBase = draw(0, 9);
    c.fanDepth = draw(4, 9);
    return c;
}

/** Replace each `from` (which must occur exactly once) with its `to`. */
std::string
substitute(std::string source,
           const std::vector<std::pair<std::string, std::string>> &edits)
{
    for (const auto &[from, to] : edits) {
        std::size_t at = source.find(from);
        if (at == std::string::npos ||
            source.find(from, at + 1) != std::string::npos)
            throw std::logic_error("grid: '" + from +
                                   "' is not unique in the thesis source");
        source.replace(at, from.size(), to);
    }
    return source;
}

std::string
str(int v)
{
    return std::to_string(v);
}

using Matrix = std::vector<std::int32_t>;
constexpr int kN = qm::programs::kMatN;

Matrix
matrix(int (*f)(int, int, const Constants &), const Constants &c)
{
    Matrix m(kN * kN);
    for (int i = 0; i < kN; ++i)
        for (int j = 0; j < kN; ++j)
            m[static_cast<std::size_t>(i * kN + j)] = f(i, j, c);
    return m;
}

Matrix
multiply(const Matrix &a, const Matrix &b, bool transposeA)
{
    Matrix c(kN * kN, 0);
    for (int i = 0; i < kN; ++i)
        for (int j = 0; j < kN; ++j) {
            std::int32_t sum = 0;
            for (int k = 0; k < kN; ++k) {
                std::int32_t x = transposeA ? a[static_cast<std::size_t>(k * kN + i)]
                                            : a[static_cast<std::size_t>(i * kN + k)];
                sum += x * b[static_cast<std::size_t>(k * kN + j)];
            }
            c[static_cast<std::size_t>(i * kN + j)] = sum;
        }
    return c;
}

Matrix
expectedMatmul(const Constants &c)
{
    return multiply(
        matrix([](int i, int j, const Constants &k) { return i + k.matA * j; }, c),
        matrix([](int i, int j, const Constants &k) { return k.matB * i - j; }, c),
        false);
}

Matrix
expectedFft(const Constants &c)
{
    const int n = qm::programs::kFftN;
    Matrix x(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] = (i * i + c.fftMul * i) % c.fftMod;
    for (int dist = 1; dist < n; dist *= 2)
        for (int g = 0; g < n / 2; ++g) {
            auto p = static_cast<std::size_t>((g / dist) * dist * 2 + g % dist);
            auto q = p + static_cast<std::size_t>(dist);
            std::int32_t u = x[p], v = x[q];
            x[p] = u + v;
            x[q] = u - v;
        }
    return x;
}

Matrix
expectedCholesky(const Constants &c)
{
    // a = g g' with diagonal cholDiag, so the factor is g itself.
    return matrix(
        [](int i, int j, const Constants &k) {
            return j <= i ? i - j + k.cholDiag : 0;
        },
        c);
}

Matrix
expectedCongruence(const Constants &c)
{
    Matrix a = matrix(
        [](int i, int j, const Constants &k) {
            return (i + 1) * (j + 1) + (i == j ? k.congDiag : 0);
        },
        c);
    Matrix p = matrix(
        [](int i, int j, const Constants &k) {
            return (i * j) % k.congMod + (i == j ? 1 : 0) - 1;
        },
        c);
    return multiply(p, multiply(a, p, false), true);
}

Matrix
expectedFan(int offset)
{
    Matrix v(16);
    for (int i = 0; i < 16; ++i)
        v[static_cast<std::size_t>(i)] = offset + i;
    return v;
}

struct GridProgram
{
    std::string name;  ///< Cell label used in the counts.
    std::string source;
    std::string resultArray;
    Matrix expected;
};

std::vector<GridProgram>
gridPrograms(std::uint64_t seed)
{
    namespace pg = qm::programs;
    const Constants c = seededConstants(seed);
    std::vector<GridProgram> programs = {
        {"matmul",
         substitute(pg::matmulSource(),
                    {{"i + (2 * j)", "i + (" + str(c.matA) + " * j)"},
                     {"(3 * i) - j", "(" + str(c.matB) + " * i) - j"}}),
         "c", expectedMatmul(c)},
        {"fft",
         substitute(pg::fftSource(),
                    {{"((i * i) + (3 * i)) \\ 11",
                      "((i * i) + (" + str(c.fftMul) + " * i)) \\ " +
                          str(c.fftMod)}}),
         "x", expectedFft(c)},
        {"cholesky",
         substitute(pg::choleskySource(),
                    {{"(i - j) + 1", "(i - j) + " + str(c.cholDiag)}}),
         "l", expectedCholesky(c)},
        {"congruence",
         substitute(pg::congruenceSource(),
                    {{"a[(i * n) + i] + 7", "a[(i * n) + i] + " + str(c.congDiag)},
                     {"((i * j) \\ 3) - 1",
                      "((i * j) \\ " + str(c.congMod) + ") - 1"}}),
         "bm", expectedCongruence(c)},
        {"fan_recursive",
         substitute(pg::binaryFanRecursiveSource(),
                    {{"fanrec (0, 0, 16, v)",
                      "fanrec (" + str(c.fanBase) + ", 0, 16, v)"}}),
         "v", expectedFan(c.fanBase + pg::kFanDepth)},
        {"fan_iterative",
         substitute(pg::binaryFanIterativeSource(),
                    {{"def depth = 4:", "def depth = " + str(c.fanDepth) + ":"}}),
         "v", expectedFan(c.fanDepth)},
    };
    if (seed == 0) {
        // The thesis seed must reproduce the embedded programs and the
        // repo's own reference results exactly.
        const std::vector<Matrix> thesis = {
            pg::expectedMatmul(),     pg::expectedFft(),
            pg::expectedCholesky(),   pg::expectedCongruence(),
            pg::expectedBinaryFan(),  pg::expectedBinaryFan()};
        const std::string *sources[] = {
            &pg::matmulSource(),     &pg::fftSource(),
            &pg::choleskySource(),   &pg::congruenceSource(),
            &pg::binaryFanRecursiveSource(),
            &pg::binaryFanIterativeSource()};
        for (std::size_t i = 0; i < programs.size(); ++i)
            if (programs[i].source != *sources[i] ||
                programs[i].expected != thesis[i])
                throw std::logic_error("grid: thesis seed does not reproduce " +
                                       programs[i].name);
    }
    return programs;
}

class Grid : public Workload
{
  public:
    Grid(std::uint64_t seed, const WorkloadOptions &options)
        : programs_(gridPrograms(seed))
    {
        if (options.corrupt)
            programs_.front().expected.front() += 1;
    }

    void
    prepare() override
    {
        compiled_.clear();
        for (const GridProgram &p : programs_)
            compiled_.push_back(qm::occam::compileOccam(p.source));
    }

    std::size_t poolSize() const override { return 1; }

    OpOutcome
    op(std::size_t, Tracer &tracer) override
    {
        OpOutcome out;
        for (std::size_t p = 0; p < programs_.size(); ++p) {
            const GridProgram &program = programs_[p];
            const CompiledProgram &code = compiled_[p];
            for (int pes = 1; pes <= kMaxPes; ++pes) {
                std::unique_ptr<System> system;
                {
                    ScopedSpan span(tracer, "mp.construct");
                    SystemConfig config;
                    config.numPes = pes;
                    system = std::make_unique<System>(code.object, config);
                }
                RunResult result;
                {
                    ScopedSpan span(tracer, "mp.run");
                    result = system->run(code.mainLabel);
                }
                {
                    ScopedSpan span(tracer, "verify");
                    std::string cell = program.name + ".pe" + str(pes);
                    checkRun(out, cell, result, *system, code,
                             program.resultArray, program.expected);
                    addSimCounts(out.counts, system->stats());
                    addCount(out.counts, "cell." + cell + ".cycles",
                             result.cycles);
                    out.instructions += result.instructions;
                    out.runInstructions += result.instructions;
                    out.cycles += result.cycles;
                }
                {
                    ScopedSpan span(tracer, "mp.destroy");
                    system.reset();
                }
            }
        }
        return out;
    }

  private:
    std::vector<GridProgram> programs_;
    std::vector<CompiledProgram> compiled_;
};

} // namespace

std::unique_ptr<Workload>
makeGrid(std::uint64_t seed, const WorkloadOptions &options)
{
    return std::make_unique<Grid>(seed, options);
}

} // namespace perfbench
