// Directed tests for the bound micro-op engine (sim/uop.h): binding at load
// over all example architectures, the bound listing, engine parity on the real
// benchmark kernels (cycles, stalls and final state, also after reset — the
// fuzz suite covers random programs), run-time engine switching, and the CLI
// `engine` command.

#include "sim/uop.h"

#include <gtest/gtest.h>

#include <sstream>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/cli.h"
#include "sim/xsim.h"
#include "support/strings.h"
#include "test_machines.h"

namespace isdl::sim {
namespace {

struct ArchCase {
  const char* name;
  std::unique_ptr<Machine> (*loader)();
  std::vector<archs::Benchmark> (*benchmarks)();
};

const ArchCase kArchs[] = {
    {"SPAM", archs::loadSpam, archs::spamBenchmarks},
    {"SPAM2", archs::loadSpam2, archs::spam2Benchmarks},
    {"SREP", archs::loadSrep, archs::srepBenchmarks},
    {"TDSP", archs::loadTdsp, archs::tdspBenchmarks},
};

/// Assembles `source` and loads it into `xsim`.
void load(Xsim& xsim, const std::string& source) {
  Assembler assembler(xsim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble(source, diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  std::string err;
  ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
}

// Binding happens at load: every decoded instruction has its record before
// the first issue, and running, resetting and re-selecting the engine bind
// nothing more. A program loaded under the interpreter binds when the bound
// engine is selected.
TEST(UopBinder, BindsEveryDecodedInstructionAtLoad) {
  for (const ArchCase& a : kArchs) {
    auto m = a.loader();
    for (const archs::Benchmark& bench : a.benchmarks()) {
      SCOPED_TRACE(::testing::Message() << a.name << "/" << bench.name);
      Xsim xsim(*m);
      ASSERT_TRUE(xsim.binder().narrow());
      load(xsim, bench.source);
      const uop::BoundProgram& bound = xsim.boundProgram();
      EXPECT_EQ(bound.byAddress.size(),
                xsim.decodedProgram().byAddress.size());
      const std::size_t uops = bound.code.size();
      EXPECT_GT(uops, 0u);
      ASSERT_EQ(xsim.run(bench.maxCycles).reason, StopReason::Halted);
      xsim.reset();
      xsim.setUopEnabled(false);
      xsim.setUopEnabled(true);
      ASSERT_EQ(xsim.run(bench.maxCycles).reason, StopReason::Halted);
      EXPECT_EQ(xsim.boundProgram().code.size(), uops);

      Xsim late(*m);
      late.setUopEnabled(false);
      load(late, bench.source);
      EXPECT_TRUE(late.boundProgram().code.empty());
      late.setUopEnabled(true);
      EXPECT_EQ(late.boundProgram().code.size(), uops);
      ASSERT_EQ(late.run(bench.maxCycles).reason, StopReason::Halted);
      EXPECT_EQ(late.stats().cycles, xsim.stats().cycles);
    }
  }
}

// Operand values are constants of the record: `addi R2, #3` reads RF[2]
// and adds the folded zext(3, 16) without any operand walk, and the
// non-terminal's other option (a register read) is not in the record.
TEST(UopBinder, ToStringIsReadable) {
  auto m = parseAndCheckIsdl(testing::kMiniIsdl);
  Xsim xsim(*m);
  load(xsim, "li R2, 4\naddi R2, #3\nadd R3, R1, R2\nhalt\n");
  ASSERT_EQ(xsim.run(100).reason, StopReason::Halted);
  const std::string addi = uop::toString(xsim.boundProgram(), 1);
  EXPECT_EQ(addi,
            "0: readelem dst=2 a=2 b=1 hi=0 lo=0\n"
            "1: binary + dst=5 a=2 b=4 hi=0 lo=0\n"
            "2: stage dst=0 a=5 b=0 hi=0 lo=0\n"
            "-- phase B\n");
  // add's carry side effect runs in phase B.
  const std::string add = uop::toString(xsim.boundProgram(), 2);
  EXPECT_NE(add.find("-- phase B"), std::string::npos);
  EXPECT_NE(add.find("carry"), std::string::npos);
  EXPECT_EQ(xsim.state().read(unsigned(m->findStorage("RF")), 2).toUint64(),
            7u);
}

void expectSameRun(Xsim& a, Xsim& b, const Machine& m) {
  EXPECT_EQ(a.stats().cycles, b.stats().cycles);
  EXPECT_EQ(a.stats().instructions, b.stats().instructions);
  EXPECT_EQ(a.stats().dataStallCycles, b.stats().dataStallCycles);
  EXPECT_EQ(a.stats().structStallCycles, b.stats().structStallCycles);
  EXPECT_EQ(a.stats().dataStallsByStorage, b.stats().dataStallsByStorage);
  EXPECT_EQ(a.stats().structStallsByField, b.stats().structStallsByField);
  EXPECT_EQ(a.stats().opCount, b.stats().opCount);
  EXPECT_EQ(a.stats().fieldUtilization, b.stats().fieldUtilization);
  for (std::size_t si = 0; si < m.storages.size(); ++si)
    for (std::uint64_t e = 0; e < m.storages[si].depth; ++e)
      EXPECT_EQ(a.state().read(unsigned(si), e),
                b.state().read(unsigned(si), e))
          << m.storages[si].name << "[" << e << "]";
}

TEST(UopEngine, BenchmarkKernelsMatchInterpreter) {
  for (const ArchCase& a : kArchs) {
    auto m = a.loader();
    for (const archs::Benchmark& bench : a.benchmarks()) {
      SCOPED_TRACE(::testing::Message() << a.name << "/" << bench.name);
      Xsim uop(*m);
      Xsim interp(*m);
      interp.setUopEnabled(false);

      Assembler assembler(uop.signatures());
      DiagnosticEngine diags;
      auto prog = assembler.assemble(bench.source, diags);
      ASSERT_TRUE(prog.has_value()) << diags.dump();

      std::string err;
      ASSERT_TRUE(uop.loadProgram(*prog, &err)) << err;
      ASSERT_TRUE(interp.loadProgram(*prog, &err)) << err;
      ASSERT_EQ(uop.run(bench.maxCycles).reason, StopReason::Halted);
      ASSERT_EQ(interp.run(bench.maxCycles).reason, StopReason::Halted);
      uop.drainPipeline();
      interp.drainPipeline();
      expectSameRun(uop, interp, *m);
      // reset() restores everything a run wrote, so reset(); run() repeats
      // the run exactly, however often.
      for (int round = 0; round < 2; ++round) {
        uop.reset();
        ASSERT_EQ(uop.run(bench.maxCycles).reason, StopReason::Halted);
        uop.drainPipeline();
        expectSameRun(uop, interp, *m);
      }
    }
  }
}

TEST(UopEngine, SwitchingEnginesMidSessionIsConsistent) {
  auto m = archs::loadTdsp();  // exercises option lvalues + side effects
  const archs::Benchmark bench = archs::tdspBenchmarks()[0];
  Xsim xsim(*m);
  Assembler assembler(xsim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble(bench.source, diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  std::string err;
  ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;

  ASSERT_EQ(xsim.run(bench.maxCycles).reason, StopReason::Halted);
  std::uint64_t uopCycles = xsim.stats().cycles;

  xsim.setUopEnabled(false);
  xsim.reset();
  ASSERT_EQ(xsim.run(bench.maxCycles).reason, StopReason::Halted);
  EXPECT_EQ(xsim.stats().cycles, uopCycles);

  xsim.setUopEnabled(true);
  xsim.reset();
  ASSERT_EQ(xsim.run(bench.maxCycles).reason, StopReason::Halted);
  EXPECT_EQ(xsim.stats().cycles, uopCycles);
}

TEST(UopEngine, CliEngineCommandSwitches) {
  auto m = parseAndCheckIsdl(testing::kMiniIsdl);
  Xsim xsim(*m);
  std::ostringstream out;
  Cli cli(xsim, out);
  EXPECT_TRUE(xsim.uopEnabled());
  cli.execute("engine interp");
  EXPECT_FALSE(xsim.uopEnabled());
  cli.execute("engine uop");
  EXPECT_TRUE(xsim.uopEnabled());
  EXPECT_EQ(cli.errorCount(), 0u);
  cli.execute("engine warp");
  EXPECT_EQ(cli.errorCount(), 1u);
  EXPECT_NE(out.str().find("micro-op"), std::string::npos);
}

/// Assembles `source` and runs it to its halt on `xsim`.
void runToHalt(Xsim& xsim, const char* source) {
  load(xsim, source);
  ASSERT_EQ(xsim.run(1000).reason, StopReason::Halted);
  xsim.drainPipeline();
}

TEST(UopEngine, SixtyFourBitCornersMatchInterpreter) {
  auto m = parseAndCheckIsdl(testing::kW64Isdl);
  Xsim uop(*m);
  Xsim interp(*m);
  interp.setUopEnabled(false);
  ASSERT_TRUE(uop.uopEnabled());
  runToHalt(uop, testing::kW64Program);
  runToHalt(interp, testing::kW64Program);
  expectSameRun(uop, interp, *m);
  const unsigned rf = unsigned(m->findStorage("R"));
  auto r = [&](unsigned i) { return uop.state().read(rf, i).toUint64(); };
  EXPECT_EQ(r(2), 0x8000000000000000u);  // sdiv(INT64_MIN, -1)
  EXPECT_EQ(r(4), 0u);                   // srem(INT64_MIN, -1)
  EXPECT_EQ(r(7), 0x7fffffffffffffffu);  // ftoi(2^124) saturates
  EXPECT_EQ(r(0), 0x8000000000000000u);  // ftoi(-2^187) saturates
}

/// 64-bit registers, li, halt and one more operation `opDef`, with
/// `defs` added to the global definitions.
std::string wide64Machine(const char* defs, const char* opDef) {
  return cat(R"(
machine W64 {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    register_file R width 64 depth 4;
    program_counter PC width 8;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token S8 immediate signed width 8;
)",
             defs, R"(
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation li(d: REG, i: S8) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- sext(i, 64); }
      }
)",
             opDef, R"(
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)");
}

// A value wider than 64 bits fails the narrow-width proof, so the default
// Xsim runs the machine on the interpreter and says so. The wide value is a
// register, an intermediate of 64-bit operands, or a non-terminal's option
// value.
TEST(UopEngine, WideMachineRunsOnInterpreter) {
  // R1 = 1, R2 = -1, so {R1, R2}[71:8] = 0x01ffffffffffffff.
  const char* kPairProgram = "li R1, 1\nli R2, -1\nop R3, R1, R2\nhalt\n";
  struct Case {
    const char* name;
    std::string isdl;
    const char* program;
    std::vector<std::pair<unsigned, const char*>> finalRegs;
  };
  const Case cases[] = {
      {"96-bit registers", testing::kWideIsdl, testing::kWideProgram,
       {{1, "0xffffffffffffffff"}, {3, "0x10000000000000000"}}},
      {"128-bit intermediate",
       wide64Machine("", R"(
      operation op(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { R[d] <- concat(R[a], R[b])[71:8]; }
      })"),
       kPairProgram, {{3, "0x01ffffffffffffff"}}},
      {"128-bit option value",
       wide64Machine(R"(
    nonterminal PAIR returns width 4 {
      option regs(a: REG, b: REG) {
        syntax a "," b;
        encode { $$[3:2] = a; $$[1:0] = b; }
        value { concat(R[a], R[b]) }
      }
    })",
                     R"(
      operation op(d: REG, p: PAIR) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:6] = p; }
        action { R[d] <- p[71:8]; }
      })"),
       kPairProgram, {{3, "0x01ffffffffffffff"}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto m = parseAndCheckIsdl(c.isdl);
    Xsim xsim(*m);
    EXPECT_FALSE(xsim.binder().narrow());
    EXPECT_FALSE(xsim.uopEnabled());
    std::ostringstream out;
    Cli cli(xsim, out);
    cli.execute("engine uop");
    EXPECT_FALSE(xsim.uopEnabled());
    EXPECT_EQ(cli.errorCount(), 0u);
    EXPECT_NE(out.str().find("execution engine: interp"), std::string::npos);

    runToHalt(xsim, c.program);
    const unsigned rf = unsigned(m->findStorage("R"));
    for (const auto& [element, value] : c.finalRegs)
      EXPECT_EQ(xsim.state().read(rf, element),
                BitVector::fromString(m->storages[rf].width, value));
  }
}

}  // namespace
}  // namespace isdl::sim
