// Quickstart: the whole methodology in one page.
//
//   1. describe a processor in ISDL (here: the bundled SREP scalar RISC),
//   2. GENSIM gives you an assembler + cycle-accurate, bit-true simulator,
//   3. run a program, read performance statistics and architectural state,
//   4. HGEN gives you the synthesizable hardware model and its costs.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "archs/archs.h"
#include "hw/hgen.h"
#include "sim/xsim.h"

using namespace isdl;

int main() {
  // --- 1. the machine description ------------------------------------------
  auto machine = archs::loadSrep();  // parse + semantic checks; throws on error
  std::printf("machine: %s (%s)\n", machine->name.c_str(),
              machine->optionalInfo.at("description").c_str());

  // --- 2. generated tools ----------------------------------------------------
  sim::Xsim xsim(*machine);  // assembler, disassembler, ILS: all retargeted
  sim::Assembler assembler(xsim.signatures());

  const char* app = R"(
        li R0, 0
        li R1, 20       ; n
        li R2, 0        ; fib(0)
        li R3, 1        ; fib(1)
        li R8, 1
loop:   add R4, R2, R3
        add R2, R3, R0
        add R3, R4, R0
        sub R1, R1, R8
        bne R1, R0, loop
        li R5, 0
        st R5, R2       ; DM[0] = fib(20)
        halt
)";
  DiagnosticEngine diags;
  auto prog = assembler.assemble(app, diags);
  if (!prog) {
    std::printf("assembly failed:\n%s", diags.dump().c_str());
    return 1;
  }

  // --- 3. simulate -----------------------------------------------------------
  std::string err;
  if (!xsim.loadProgram(*prog, &err)) {
    std::printf("load failed: %s\n", err.c_str());
    return 1;
  }
  sim::RunResult r = xsim.run(100000);
  xsim.drainPipeline();
  std::printf("stopped: %s after %llu cycles, %llu instructions\n",
              sim::stopReasonName(r.reason),
              (unsigned long long)xsim.stats().cycles,
              (unsigned long long)xsim.stats().instructions);

  int dm = machine->findStorage("DM");
  std::printf("fib(20) = %llu (expected 6765)\n",
              (unsigned long long)xsim.state().read(dm, 0).toUint64());

  // Disassemble the loop body back out of instruction memory.
  std::printf("\nloop body, disassembled from the binary:\n");
  for (std::uint64_t a = 5; a <= 9; ++a)
    std::printf("  %llu: %s\n", (unsigned long long)a,
                xsim.disassembler().render(xsim.decodedProgram(), a).c_str());

  // --- 4. hardware model ------------------------------------------------------
  hw::HgenOutput hgen = hw::runHgen(*machine, xsim.signatures());
  std::printf("\nhardware model: %.2f ns cycle, %.0f grid cells, %zu lines "
              "of Verilog\n",
              hgen.stats.cycleNs, hgen.stats.dieSizeGridCells,
              hgen.stats.verilogLines);
  std::printf("application runtime: %llu cycles x %.2f ns = %.2f us\n",
              (unsigned long long)xsim.stats().cycles, hgen.stats.cycleNs,
              double(xsim.stats().cycles) * hgen.stats.cycleNs / 1000.0);
  return 0;
}
