// Differential fuzzing over the bundled architectures: random
// constraint-respecting straight-line programs are executed on the two
// software engines and on the generated hardware model, and everything
// observable must agree. The generators and comparators live in src/testing
// (shared with the isdl-fuzz driver, which additionally fuzzes the machine
// description itself); this suite pins them to the four hand-written archs.
//
// Every trial logs its RNG seed; set ISDL_FUZZ_SEED to replay a failure.

#include <gtest/gtest.h>

#include <random>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "support/strings.h"
#include "test_machines.h"
#include "testing/fuzzer.h"
#include "testing/oracle.h"
#include "testing/programgen.h"

namespace isdl {
namespace {

struct FuzzCase {
  const char* name;
  std::unique_ptr<Machine> (*loader)();
};

// Print the case by name: gtest's default dumps the struct's bytes, whose
// pointers change with address-space randomisation, so ctest names would
// change on every rebuild.
void PrintTo(const FuzzCase& c, std::ostream* os) { *os << c.name; }

class FuzzDiffTest : public ::testing::TestWithParam<FuzzCase> {};

// Full three-way oracle: interp vs uop exactly (traps included), plus the
// HGEN->netlist->gatesim leg on halting runs.
TEST_P(FuzzDiffTest, RandomProgramsAgreeAcrossAllEngines) {
  auto machine = GetParam().loader();
  testing::DifferentialOracle oracle(*machine);

  const std::uint64_t seed = testing::seedFromEnv(12345);
  std::mt19937 rng(static_cast<std::uint32_t>(seed));
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " seed=" << seed
                 << " (set ISDL_FUZZ_SEED to override)");
    sim::AssembledProgram prog =
        testing::randomEncodedProgram(*machine, oracle.signatures(), rng, 40);
    testing::OracleReport rep = oracle.run(prog);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, FuzzDiffTest,
    ::testing::Values(
        FuzzCase{"MINI",
                 +[]() { return parseAndCheckIsdl(testing::kMiniIsdl); }},
        FuzzCase{"SPAM", archs::loadSpam},
        FuzzCase{"SPAM2", archs::loadSpam2},
        FuzzCase{"SREP", archs::loadSrep},
        FuzzCase{"TDSP", archs::loadTdsp}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return info.param.name;
    });

// Engine-only differential with a distinct seed stream: the micro-op
// compiled core against the tree-walking interpreter, stop reason, stall
// attribution and state all exact — runtime traps are NOT skipped.
class UopDiffTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(UopDiffTest, UopEngineMatchesInterpreter) {
  auto machine = GetParam().loader();
  testing::OracleOptions opts;
  opts.checkHardware = false;
  testing::DifferentialOracle oracle(*machine, opts);

  const std::uint64_t seed = testing::seedFromEnv(98765);
  std::mt19937 rng(static_cast<std::uint32_t>(seed));
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " seed=" << seed
                 << " (set ISDL_FUZZ_SEED to override)");
    sim::AssembledProgram prog =
        testing::randomEncodedProgram(*machine, oracle.signatures(), rng, 40);
    testing::OracleReport rep = oracle.run(prog);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, UopDiffTest,
    ::testing::Values(
        FuzzCase{"MINI",
                 +[]() { return parseAndCheckIsdl(testing::kMiniIsdl); }},
        FuzzCase{"SPAM", archs::loadSpam},
        FuzzCase{"SPAM2", archs::loadSpam2},
        FuzzCase{"SREP", archs::loadSrep},
        FuzzCase{"TDSP", archs::loadTdsp}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace isdl
