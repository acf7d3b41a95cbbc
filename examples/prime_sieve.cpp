/**
 * @file
 * Domain example: a CSP pipeline sieve of Eratosthenes.
 *
 * The classic OCCAM/CSP demonstration - a chain of filter processes,
 * each holding one prime and forwarding non-multiples to the next
 * stage - mapped onto queue-machine contexts connected by channels.
 * This exercises everything the dynamic data-flow splicing mechanism
 * exists for: a static chain of communicating contexts doing real work
 * in parallel as candidates stream through.
 *
 * Build and run:  ./build/examples/prime_sieve [pes]
 */
#include <iostream>
#include <string>

#include "mp/system.hpp"
#include "occam/compiler.hpp"
#include "support/cli.hpp"

namespace {

/**
 * Six filter stages catch the primes up to 13 among candidates
 * 2..limit; each stage records its prime into the result vector and
 * passes everything else downstream. The last stage drains the
 * leftovers. Channels chain the stages; a 0 terminates the stream.
 */
const char *kSieve = R"(
def limit = 30:
var primes[8]:
chan c0, c1, c2, c3, c4, c5, c6:
proc filter (value idx, chan cin, chan cout, var sink[]) =
  var p, x, stop:
  seq
    cin ? p
    sink[idx] := p
    stop := 0
    while stop = 0
      seq
        cin ? x
        if
          x = 0
            seq
              cout ! 0
              stop := 1
          (x \ p) <> 0
            cout ! x
          (x \ p) = 0
            skip
:
proc drain (chan cin) =
  var x, stop:
  seq
    stop := 0
    while stop = 0
      seq
        cin ? x
        if
          x = 0
            stop := 1
          x <> 0
            skip
:
par
  seq
    seq n = [2 for limit - 1]
      c0 ! n
    c0 ! 0
  filter (0, c0, c1, primes)
  filter (1, c1, c2, primes)
  filter (2, c2, c3, primes)
  filter (3, c3, c4, primes)
  filter (4, c4, c5, primes)
  filter (5, c5, c6, primes)
  drain (c6)
)";

} // namespace

int
main(int argc, char **argv)
{
    int pes = 4;
    try {
        if (argc > 1)
            pes = qm::parsePositiveIntArg(argv[1], "pes", /*max=*/4096);
    } catch (const qm::FatalError &e) {
        std::cerr << "prime_sieve: " << e.what()
                  << "\nusage: prime_sieve [pes]\n";
        return 2;
    }
    try {
        qm::occam::CompiledProgram program =
            qm::occam::compileOccam(kSieve);
        qm::mp::SystemConfig config;
        config.numPes = pes;
        qm::mp::System system(program.object, config);
        qm::mp::RunResult result = system.run(program.mainLabel);

        std::cout << "pipeline sieve on " << pes << " PEs: "
                  << result.cycles << " cycles, " << result.rendezvous
                  << " channel transfers, " << result.contexts
                  << " contexts\n";
        qm::isa::Addr base = program.arrayAddress("primes");
        std::cout << "primes caught by the six filter stages:";
        for (int i = 0; i < 6; ++i)
            std::cout << " "
                      << system.memory().readWord(
                             base + static_cast<qm::isa::Addr>(i) * 4);
        std::cout << "  (expect 2 3 5 7 11 13)\n";
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
