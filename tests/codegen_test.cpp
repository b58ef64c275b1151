// Tests for the compiled-code simulator generator (§6.2 future work): the
// generated C++ is compiled with the host compiler and executed; its final
// state must match the XSIM run bit for bit, and its cycle counter must
// satisfy the stall identity, and a trap must end both. Inputs are the
// bundled kernels, a 64-bit corner-case machine, a machine with nested option
// side effects and a shallow data memory, and generated machines at fixed
// seeds.

#include "sim/codegen.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/xsim.h"
#include "support/strings.h"
#include "test_machines.h"
#include "testing/fuzzer.h"
#include "testing/machinegen.h"
#include "testing/programgen.h"

namespace isdl::sim {
namespace {

struct RunResult {
  bool available = false;  ///< a host C++ compiler was found
  int status = -1;         ///< exit status of the generated simulator
  std::string output;      ///< its stdout
};

/// Compiles and runs generated simulator source. Scratch file names carry
/// the pid: ctest runs each TEST as its own process in a shared working
/// directory, and fixed names race under `ctest -j`.
RunResult compileAndRun(const std::string& source) {
  RunResult r;
  r.available = std::system("c++ --version > /dev/null 2>&1") == 0;
  if (!r.available) return r;
  std::string tag = cat("codegen_test_", ::getpid());
  std::string srcPath = tag + "_sim.cpp";
  std::string binPath = "./" + tag + "_sim.bin";
  std::string errPath = tag + "_err.txt";
  std::string outPath = tag + "_out.txt";
  {
    std::ofstream f(srcPath);
    f << source;
  }
  std::string cmd = cat("c++ -O1 -std=c++17 -o ", binPath, " ", srcPath,
                        " 2> ", errPath);
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream err(errPath);
    std::stringstream ss;
    ss << err.rdbuf();
    ADD_FAILURE() << "generated simulator failed to compile:\n" << ss.str();
    return r;
  }
  const int wait = std::system(cat(binPath, " > ", outPath).c_str());
  r.status = WIFEXITED(wait) ? WEXITSTATUS(wait) : -1;
  std::ifstream out(outPath);
  std::stringstream ss;
  ss << out.rdbuf();
  r.output = ss.str();
  std::remove(srcPath.c_str());
  std::remove(binPath.c_str());
  std::remove(outPath.c_str());
  std::remove(errPath.c_str());
  return r;
}

struct ParsedOutput {
  std::uint64_t cycles = 0, instructions = 0;
  /// (storage name, element) -> value
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> state;
};

ParsedOutput parseOutput(const std::string& text) {
  ParsedOutput p;
  std::istringstream is(text);
  std::string word;
  while (is >> word) {
    if (word == "cycles") {
      is >> p.cycles;
    } else if (word == "instructions") {
      is >> p.instructions;
    } else if (word == "seconds") {
      double ignore;
      is >> ignore;
    } else {
      std::uint64_t element, value;
      is >> element >> std::hex >> value >> std::dec;
      p.state[{word, element}] = value;
    }
  }
  return p;
}

/// Generates, compiles and runs the simulator for `prog`, and compares it
/// with `xsim`, which has just run `prog` to its halt.
void expectMatchesXsim(const Machine& m, Xsim& xsim,
                       const AssembledProgram& prog) {
  xsim.drainPipeline();
  std::string source = generateCompiledSim(m, xsim.signatures(), prog);
  RunResult run = compileAndRun(source);
  if (!run.available) GTEST_SKIP() << "no host C++ compiler";
  ASSERT_EQ(run.status, 0) << run.output;
  ParsedOutput parsed = parseOutput(run.output);

  EXPECT_EQ(parsed.instructions, xsim.stats().instructions);
  EXPECT_EQ(xsim.stats().cycles,
            parsed.cycles + xsim.stats().dataStallCycles +
                xsim.stats().structStallCycles);

  // Every non-zero architectural value must match (generated output prints
  // only non-zero locations).
  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    if (static_cast<int>(si) == m.imemIndex) continue;
    const StorageDef& st = m.storages[si];
    for (std::uint64_t e = 0; e < st.depth; ++e) {
      std::uint64_t expected =
          xsim.state().read(static_cast<unsigned>(si), e).toUint64();
      auto it = parsed.state.find({st.name, e});
      std::uint64_t got = it == parsed.state.end() ? 0 : it->second;
      EXPECT_EQ(got, expected) << st.name << "[" << e << "]";
    }
  }
}

void checkBenchmark(std::unique_ptr<Machine> (*loader)(),
                    const archs::Benchmark& bench) {
  SCOPED_TRACE(bench.name);
  auto m = loader();
  Xsim xsim(*m);
  Assembler assembler(xsim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble(bench.source, diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();

  std::string err;
  ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
  ASSERT_EQ(xsim.run(bench.maxCycles).reason, StopReason::Halted);
  expectMatchesXsim(*m, xsim, *prog);
}

TEST(Codegen, SrepFibMatchesInterpreter) {
  checkBenchmark(archs::loadSrep, archs::srepBenchmarks()[0]);
}

TEST(Codegen, SrepDotMatchesInterpreter) {
  checkBenchmark(archs::loadSrep, archs::srepBenchmarks()[1]);
}

TEST(Codegen, Spam2DotMatchesInterpreter) {
  checkBenchmark(archs::loadSpam2, archs::spam2Benchmarks()[0]);
}

TEST(Codegen, TdspFirMatchesInterpreter) {
  // Exercises non-terminal value inlining, lvalue options and option side
  // effects in generated code.
  checkBenchmark(archs::loadTdsp, archs::tdspBenchmarks()[0]);
}

TEST(Codegen, SpamFloatDotMatchesInterpreter) {
  // 128-bit instruction words are fine: compiled execution never touches
  // the instruction memory.
  checkBenchmark(archs::loadSpam, archs::spamBenchmarks()[0]);
}

TEST(Codegen, SixtyFourBitCornersMatchInterpreter) {
  // Signed division of INT64_MIN by -1 (which traps in native C++) and
  // float -> int saturation at 64 bits.
  checkBenchmark(+[] { return parseAndCheckIsdl(testing::kW64Isdl); },
                 {"w64", "", testing::kW64Program, 1000});
}

TEST(Codegen, NestedOptionSideEffectsMatchInterpreter) {
  // INNER.inc's post-increment sits in an option of SRC.mem's operand: both
  // simulators end with A1 = 7, D0 = DM[5] and D1 = DM[6].
  auto m = parseAndCheckIsdl(testing::kNestIsdl);
  Xsim xsim(*m);
  Assembler assembler(xsim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble(
      ".dm 5 11\n.dm 6 22\nlar A1, 5\nmov D0, (A1+)\nmov D1, (A1+)\nhalt\n",
      diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  std::string err;
  ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
  ASSERT_EQ(xsim.run(100).reason, StopReason::Halted);
  EXPECT_EQ(xsim.state().read(unsigned(m->findStorage("AR")), 1).toUint64(),
            7u);
  EXPECT_EQ(xsim.state().read(unsigned(m->findStorage("D")), 1).toUint64(),
            22u);
  expectMatchesXsim(*m, xsim, *prog);
}

TEST(Codegen, OutOfRangeAccessTrapsLikeInterpreter) {
  // A1 = 200 addresses past the 16-deep DM: XSIM stops on a runtime error,
  // and the generated simulator prints the trap and exits 2.
  auto m = parseAndCheckIsdl(testing::kNestIsdl);
  for (const char* source : {"lar A1, 200\nmov D0, (A1)\nhalt\n",
                             "lar A1, 200\nst (A1), D0\nhalt\n"}) {
    SCOPED_TRACE(source);
    Xsim xsim(*m);
    Assembler assembler(xsim.signatures());
    DiagnosticEngine diags;
    auto prog = assembler.assemble(source, diags);
    ASSERT_TRUE(prog.has_value()) << diags.dump();
    std::string err;
    ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
    EXPECT_EQ(xsim.run(100).reason, StopReason::RuntimeError);

    RunResult run =
        compileAndRun(generateCompiledSim(*m, xsim.signatures(), *prog));
    if (!run.available) GTEST_SKIP() << "no host C++ compiler";
    EXPECT_EQ(run.status, 2) << run.output;
    EXPECT_NE(run.output.find("trap: "), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("DM[200]"), std::string::npos) << run.output;
  }
}

TEST(Codegen, RejectsWideArchitecturalState) {
  // A storage wider than 64 bits, and a value wider than 64 bits computed
  // between 64-bit registers.
  for (const char* source : {R"(
machine W {
  section format { word_width = 8; }
  section storage {
    instruction_memory IM width 8 depth 4;
    program_counter PC width 4;
    register BIG width 100;
  }
  section instruction_set { field F { operation nop() { encode { inst[7] = 0; } } } }
}
)",
                             R"(
machine C {
  section format { word_width = 8; }
  section storage {
    instruction_memory IM width 8 depth 4;
    program_counter PC width 4;
    register A width 64;
    register B width 64;
    register Q width 64;
  }
  section instruction_set { field F {
    operation nop() { encode { inst[7] = 0; } }
    operation mid() { encode { inst[7] = 1; } action { Q <- concat(A, B)[71:8]; } }
  } }
}
)"}) {
    auto m = isdl::parseAndCheckIsdl(source);
    DiagnosticEngine diags;
    SignatureTable sigs(*m, diags);
    AssembledProgram prog;
    prog.words.push_back(BitVector(8, 0));
    EXPECT_THROW(generateCompiledSim(*m, sigs, prog), IsdlError) << m->name;
  }
}

// The generated simulator against XSIM on generated machines, at fixed
// seeds: each seed's machine runs its first halting random program.
class CodegenGeneratedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodegenGeneratedTest, MatchesXsim) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  testing::MachineSpec spec = testing::randomMachineSpec(rng);
  auto m = parseAndCheckIsdl(testing::emitIsdl(spec));
  Xsim xsim(*m);
  Assembler assembler(xsim.signatures());
  for (std::uint64_t lane = 1; lane <= 8; ++lane) {
    std::mt19937_64 prng(testing::mixSeed(seed, lane));
    std::string source =
        join(testing::randomAssemblyProgram(*m, xsim.signatures(), prng, 25),
             "\n") + "\n";
    DiagnosticEngine diags;
    auto prog = assembler.assemble(source, diags);
    ASSERT_TRUE(prog.has_value()) << diags.dump();
    std::string err;
    ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
    if (xsim.run(100000).reason != StopReason::Halted) continue;  // a trap
    SCOPED_TRACE(cat("machine seed ", seed, ", program lane ", lane));
    expectMatchesXsim(*m, xsim, *prog);
    return;
  }
  FAIL() << "no halting program for machine seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodegenGeneratedTest,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace isdl::sim
