// Co-simulation: the HGEN-generated hardware model and the GENSIM-generated
// XSIM simulator must agree. For every benchmark of every built-in
// architecture we run the same binary on both and compare
//   * final register and memory state (bit-true equivalence),
//   * retired instruction counts, and
//   * the cycle identity: XSIM cycles == hardware cycle_count + XSIM stalls
//     (the hardware model charges each instruction's static Cycle cost;
//     stalls are the ILS's dynamic-performance contribution).
//
// This is the strongest statement the paper makes implicitly in footnote 8:
// "the synthesizable Verilog model is itself a simulator" — both are
// generated from one ISDL description, so they must implement the same
// machine.

#include <gtest/gtest.h>

#include "archs/archs.h"
#include "hw/datapath.h"
#include "sim/xsim.h"
#include "support/strings.h"
#include "testing/oracle.h"

namespace isdl {
namespace {

struct CosimCase {
  const char* archName;
  std::unique_ptr<Machine> (*loader)();
  std::vector<archs::Benchmark> (*benches)();
};

// Print the case by name: gtest's default dumps the struct's bytes, whose
// pointers change with address-space randomisation, so ctest names would
// change on every rebuild.
void PrintTo(const CosimCase& c, std::ostream* os) { *os << c.archName; }

class CosimTest : public ::testing::TestWithParam<CosimCase> {};

TEST_P(CosimTest, HardwareModelMatchesXsim) {
  const CosimCase& c = GetParam();
  auto machine = c.loader();
  ASSERT_NE(machine, nullptr);

  sim::Xsim xsim(*machine);
  hw::HwModel model = hw::buildDatapath(*machine, xsim.signatures());
  sim::Assembler assembler(xsim.signatures());

  for (const auto& bench : c.benches()) {
    SCOPED_TRACE(std::string(c.archName) + "/" + bench.name);

    DiagnosticEngine diags;
    auto prog = assembler.assemble(bench.source, diags);
    ASSERT_TRUE(prog.has_value()) << diags.dump();

    // --- reference: XSIM ---------------------------------------------------
    std::string err;
    ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
    sim::RunResult r = xsim.run(bench.maxCycles);
    ASSERT_EQ(r.reason, sim::StopReason::Halted) << r.message;
    xsim.drainPipeline();

    // --- device under test: the generated hardware model -------------------
    // One comparator, shared with fuzz_diff_test and the isdl-fuzz driver:
    // storage bits, retired instructions, the cycle identity and the
    // illegal-decode net (see testing/oracle.h).
    std::vector<std::string> divergences;
    testing::compareWithHardware(*machine, xsim, model, *prog,
                                 bench.maxCycles, divergences);
    EXPECT_TRUE(divergences.empty()) << join(divergences, "\n");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, CosimTest,
    ::testing::Values(
        CosimCase{"SPAM", archs::loadSpam, archs::spamBenchmarks},
        CosimCase{"SPAM2", archs::loadSpam2, archs::spam2Benchmarks},
        CosimCase{"SREP", archs::loadSrep, archs::srepBenchmarks},
        CosimCase{"TDSP", archs::loadTdsp, archs::tdspBenchmarks}),
    [](const ::testing::TestParamInfo<CosimCase>& info) {
      return info.param.archName;
    });

}  // namespace
}  // namespace isdl
