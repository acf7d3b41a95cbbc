/**
 * @file
 * Domain example: dual-mode execution.
 *
 * A design goal of the thesis processing element is supporting the
 * conventional Von Neumann execution model alongside the queue-based
 * model (section 5.1): global registers, branches, and a program
 * counter coexist with the operand queue. This example runs one
 * hand-written program that mixes the two styles - a register-machine
 * loop computing Fibonacci numbers into memory, followed by a
 * queue-mode reduction over them - on a bare processing element.
 *
 * Build and run:  ./build/examples/von_neumann
 */
#include <iostream>

#include "isa/assembler.hpp"
#include "pe/memory.hpp"
#include "pe/pe.hpp"

int
main()
{
    // Registers: r17 = F(i), r18 = F(i+1), r19 = cursor, r20 = count.
    // Phase 1 is pure Von Neumann (globals + branch); phase 2 sums the
    // stored table queue-style: fetches feed the operand queue, the
    // adds consume from its front.
    const char *source =
        "  ; phase 1: fib table at 0x2000, register style\n"
        "  plus #0,#1 :r17\n"
        "  plus #0,#1 :r18\n"
        "  plus #8192,#0 :r19\n"
        "  plus #10,#0 :r20\n"
        "fib_loop:\n"
        "  store r19,r17\n"
        "  plus r17,r18 :r21\n"
        "  plus r18,#0 :r17\n"
        "  plus r21,#0 :r18\n"
        "  plus r19,#4 :r19\n"
        "  minus r20,#1 :r20\n"
        "  bne r20,@fib_loop\n"
        "\n"
        "  ; phase 2: queue-mode pairwise reduction of the 10 entries\n"
        "  fetch #8192 :r0\n"
        "  fetch #8196 :r1\n"
        "  fetch #8200 :r2\n"
        "  fetch #8204 :r3\n"
        "  fetch #8208 :r4\n"
        "  fetch #8212 :r5\n"
        "  fetch #8216 :r6\n"
        "  fetch #8220 :r7\n"
        "  fetch #8224 :r8\n"
        "  fetch #8228 :r9\n"
        "  plus++ r0,r1 :r8\n"   // level 1 results land contiguously
        "  plus++ r0,r1 :r7\n"
        "  plus++ r0,r1 :r6\n"
        "  plus++ r0,r1 :r5\n"
        "  plus++ r0,r1 :r4\n"
        "  plus++ r0,r1 :r3\n"   // level 2
        "  plus++ r0,r1 :r2\n"
        "  plus++ r0,r1 :r1\n"   // level 3
        "  plus++ r0,r1 :r0\n"   // final sum at the queue front
        "  store #8232,r0\n"
        "  fret\n";

    try {
        qm::isa::ObjectCode code = qm::isa::assemble(source);
        qm::isa::DecodedProgram decoded(code.words);
        qm::pe::Memory memory(1 << 16);
        qm::pe::NullHost host;
        qm::pe::ProcessingElement pe(memory, decoded, host);

        qm::pe::ContextState ctx;
        ctx.qp = 0x1000;
        ctx.pom = qm::pe::pomForPageWords(64);
        pe.loadContext(ctx);

        long cycles = 0;
        for (;;) {
            qm::pe::StepResult r = pe.step();
            cycles += r.cycles;
            if (r.status != qm::pe::StepStatus::Executed)
                break;
        }

        std::cout << "fib table:";
        for (int i = 0; i < 10; ++i)
            std::cout << " " << memory.readWord(0x2000 +
                                                static_cast<qm::isa::
                                                    Addr>(i) * 4);
        std::cout << "\nqueue-mode sum = " << memory.readWord(0x2028)
                  << " (expect 143)\n"
                  << cycles << " cycles, window hits "
                  << pe.stats().counter("pe.window_hits")
                  << ", window misses "
                  << pe.stats().counter("pe.window_misses") << "\n";
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
