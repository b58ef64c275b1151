// Integration tests: every built-in architecture parses, checks, and builds
// a decodeable simulator; every benchmark kernel assembles, runs to halt,
// and produces values matching a C++ mirror of the computation.

#include "archs/archs.h"

#include <gtest/gtest.h>

#include <bit>

#include "sim/xsim.h"

namespace isdl::archs {
namespace {

using sim::Assembler;
using sim::StopReason;
using sim::Xsim;

/// Assembles and runs `src` on `machine` to completion; returns the sim.
std::unique_ptr<Xsim> runProgram(const Machine& machine, const char* src,
                                 std::uint64_t maxCycles) {
  auto xs = std::make_unique<Xsim>(machine);
  Assembler assembler(xs->signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble(src, diags);
  EXPECT_TRUE(prog.has_value()) << diags.dump();
  if (!prog) return xs;
  std::string err;
  EXPECT_TRUE(xs->loadProgram(*prog, &err)) << err;
  sim::RunResult r = xs->run(maxCycles);
  EXPECT_EQ(r.reason, StopReason::Halted) << r.message;
  xs->drainPipeline();
  return xs;
}

std::uint64_t dmWord(Xsim& xs, std::uint64_t addr) {
  int dm = xs.machine().findStorage("DM");
  return xs.state().read(static_cast<unsigned>(dm), addr).toUint64();
}

float dmFloat(Xsim& xs, std::uint64_t addr) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(dmWord(xs, addr)));
}

TEST(Archs, AllMachinesParseAndBuildSimulators) {
  for (auto loader : {loadSpam, loadSpam2, loadSrep, loadTdsp}) {
    auto m = loader();
    ASSERT_NE(m, nullptr);
    EXPECT_NO_THROW({ Xsim sim(*m); });
  }
}

TEST(Archs, SpamShape) {
  auto m = loadSpam();
  EXPECT_EQ(m->wordWidth, 128u);
  ASSERT_EQ(m->fields.size(), 7u);  // 4 operations + 3 parallel moves
  EXPECT_EQ(m->fields[0].name, "U0");
  EXPECT_EQ(m->fields[6].name, "M2");
  EXPECT_EQ(m->constraints.size(), 7u);
}

TEST(Archs, SpamDotProduct) {
  auto m = loadSpam();
  auto xs = runProgram(*m, spamBenchmarks()[0].source,
                       spamBenchmarks()[0].maxCycles);
  float expected = 0.0f;
  for (int i = 0; i < 64; ++i) expected += float(i) * float(2 * i);
  EXPECT_EQ(dmFloat(*xs, 128), expected);
  EXPECT_GT(xs->stats().dataStallCycles, 0u);  // load-use interlocks fire
}

TEST(Archs, SpamSaxpy) {
  auto m = loadSpam();
  auto xs = runProgram(*m, spamBenchmarks()[1].source,
                       spamBenchmarks()[1].maxCycles);
  for (int i = 0; i < 64; ++i) {
    float x = float(i), y = float(i + 64);
    EXPECT_EQ(dmFloat(*xs, 64 + i), 2.5f * x + y) << "i=" << i;
  }
}

TEST(Archs, SpamFir) {
  auto m = loadSpam();
  auto xs = runProgram(*m, spamBenchmarks()[2].source,
                       spamBenchmarks()[2].maxCycles);
  for (int n = 7; n < 64; ++n) {
    float acc = 0.0f;
    for (int k = 0; k < 8; ++k) acc += float(k + 1) * float(n - k);
    EXPECT_EQ(dmFloat(*xs, 80 + n), acc) << "n=" << n;
  }
}

TEST(Archs, SpamGatherWithIndexedAddressing) {
  auto m = loadSpam();
  auto xs = runProgram(*m, spamBenchmarks()[3].source, 10000);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(dmWord(*xs, 300 + i), std::uint64_t(2 * i)) << "i=" << i;
}

TEST(Archs, SpamMatrixMultiply4x4) {
  auto m = loadSpam();
  auto xs = runProgram(*m, spamBenchmarks()[4].source,
                       spamBenchmarks()[4].maxCycles);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      float expected = 0.0f;
      for (int k = 0; k < 4; ++k)
        expected += float(i * 4 + k) * float(k * 4 + j + 1);
      EXPECT_EQ(dmFloat(*xs, 32 + i * 4 + j), expected)
          << "C[" << i << "][" << j << "]";
    }
  }
}

TEST(Archs, SpamIndexedMemoryBorrowsU1Adder) {
  // The ldx/stx address adder is constrained against U1.add: bundling them
  // must be rejected, matching the shared-unit hardware.
  auto m = loadSpam();
  Xsim xs(*m);
  Assembler assembler(xs.signatures());
  DiagnosticEngine diags;
  EXPECT_FALSE(assembler
                   .assemble("{ ldx R1, R2, R3 | U1.add R4, R5, R6 }\n",
                             diags)
                   .has_value());
  EXPECT_NE(diags.dump().find("violates constraint"), std::string::npos);
  // U2's adder is not part of the shared unit: the bundle is legal there.
  DiagnosticEngine diags2;
  EXPECT_TRUE(assembler
                  .assemble("{ ldx R1, R2, R3 | U2.add R4, R5, R6 }\n",
                            diags2)
                  .has_value())
      << diags2.dump();
}

TEST(Archs, SpamVliwUtilization) {
  // The dot kernel keeps U1/U2 busy via the 3-wide add bundles.
  auto m = loadSpam();
  auto xs = runProgram(*m, spamBenchmarks()[0].source, 100000);
  EXPECT_GT(xs->stats().fieldUtilization[1], 0u);  // U1
  EXPECT_GT(xs->stats().fieldUtilization[2], 0u);  // U2
}

TEST(Archs, Spam2DotProduct) {
  auto m = loadSpam2();
  auto xs = runProgram(*m, spam2Benchmarks()[0].source, 100000);
  std::uint64_t expected = 0;
  for (int i = 0; i < 64; ++i) expected += std::uint64_t(i) * (2 * i);
  EXPECT_EQ(dmWord(*xs, 128), expected);
}

TEST(Archs, Spam2VecSum) {
  auto m = loadSpam2();
  auto xs = runProgram(*m, spam2Benchmarks()[1].source, 100000);
  std::uint64_t expected = 0;
  for (int i = 0; i < 64; ++i) expected += 3 * i + 1;
  EXPECT_EQ(dmWord(*xs, 200), expected);
}

TEST(Archs, SrepFib) {
  auto m = loadSrep();
  auto xs = runProgram(*m, srepBenchmarks()[0].source, 10000);
  EXPECT_EQ(dmWord(*xs, 0), 6765u);  // fib(20)
}

TEST(Archs, SrepDot) {
  auto m = loadSrep();
  auto xs = runProgram(*m, srepBenchmarks()[1].source, 100000);
  EXPECT_EQ(dmWord(*xs, 128), 170688u);
}

TEST(Archs, SrepGcd) {
  auto m = loadSrep();
  auto xs = runProgram(*m, srepBenchmarks()[2].source, 10000);
  EXPECT_EQ(dmWord(*xs, 1), 21u);
}

TEST(Archs, TdspFirWithPostIncrement) {
  auto m = loadTdsp();
  auto xs = runProgram(*m, tdspBenchmarks()[0].source, 10000);
  std::uint64_t expected = 0;
  for (int k = 0; k < 8; ++k) expected += std::uint64_t(k + 1) * (2 * (k + 1));
  EXPECT_EQ(dmWord(*xs, 32), expected & 0xFFFF);
  // Post-increment side effects must have advanced both address registers.
  int ar = m->findStorage("AR");
  EXPECT_EQ(xs->state().read(static_cast<unsigned>(ar), 0).toUint64(), 8u);
  EXPECT_EQ(xs->state().read(static_cast<unsigned>(ar), 1).toUint64(), 24u);
}

TEST(Archs, TdspMemcpy) {
  auto m = loadTdsp();
  auto xs = runProgram(*m, tdspBenchmarks()[1].source, 10000);
  const std::uint64_t vals[] = {11, 22, 33, 44, 55, 66, 77, 88};
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(dmWord(*xs, 40 + i), vals[i]) << "i=" << i;
}

TEST(Archs, TdspIndirectModeAddsCycle) {
  // `add D0, (A0)` must cost one cycle more than `add D0, D1` (the ind
  // option's extra cycle cost).
  auto m = loadTdsp();
  auto run = [&](const char* body) {
    auto xs = runProgram(*m, body, 1000);
    return xs->stats().cycles;
  };
  std::uint64_t regCycles = run("li D0, 1\nli D1, 2\nadd D0, D1\nhalt\n");
  std::uint64_t indCycles = run("li D0, 1\nlar A0, 5\nadd D0, (A0)\nhalt\n");
  EXPECT_EQ(indCycles, regCycles + 1);
}

TEST(Archs, SpamConstraintEnforced) {
  auto m = loadSpam();
  Xsim xs(*m);
  Assembler assembler(xs.signatures());
  DiagnosticEngine diags;
  EXPECT_FALSE(
      assembler.assemble("{ ld R1, R2 | M2.mov R3, R4 }\n", diags).has_value());
  EXPECT_NE(diags.dump().find("violates constraint"), std::string::npos);
  // The same move on M0 is legal.
  DiagnosticEngine diags2;
  EXPECT_TRUE(
      assembler.assemble("{ ld R1, R2 | M0.mov R3, R4 }\n", diags2).has_value())
      << diags2.dump();
}

TEST(Archs, RoundTripAllBenchmarks) {
  // Every benchmark instruction must survive asm -> bin -> disasm -> asm ->
  // bin with identical words.
  struct Case {
    std::unique_ptr<Machine> m;
    std::vector<Benchmark> benches;
  };
  Case cases[] = {{loadSpam(), spamBenchmarks()},
                  {loadSpam2(), spam2Benchmarks()},
                  {loadSrep(), srepBenchmarks()},
                  {loadTdsp(), tdspBenchmarks()}};
  for (auto& c : cases) {
    DiagnosticEngine sigDiags;
    sim::SignatureTable sigs(*c.m, sigDiags);
    ASSERT_TRUE(sigs.valid()) << sigDiags.dump();
    Assembler assembler(sigs);
    sim::Disassembler disasm(sigs);
    for (const auto& b : c.benches) {
      DiagnosticEngine diags;
      auto prog = assembler.assemble(b.source, diags);
      ASSERT_TRUE(prog.has_value()) << c.m->name << "/" << b.name << "\n"
                                    << diags.dump();
      std::string rendered;
      for (std::uint64_t a = 0; a < prog->words.size();) {
        sim::DecodedProgram decoded;
        ASSERT_TRUE(disasm.decodeAt(prog->words, a, decoded))
            << c.m->name << "/" << b.name << " word " << a;
        rendered += disasm.render(decoded, a) + "\n";
        a += decoded.byAddress[a].sizeWords;
      }
      DiagnosticEngine diags2;
      auto prog2 = assembler.assemble(rendered, diags2);
      ASSERT_TRUE(prog2.has_value()) << c.m->name << "/" << b.name << "\n"
                                     << diags2.dump() << "\n" << rendered;
      ASSERT_EQ(prog->words.size(), prog2->words.size());
      for (std::size_t i = 0; i < prog->words.size(); ++i)
        EXPECT_EQ(prog->words[i], prog2->words[i])
            << c.m->name << "/" << b.name << " word " << i;
    }
  }
}

}  // namespace
}  // namespace isdl::archs
