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
#include "isdl/parser.h"
#include "sim/assembler.h"
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

// Writes in flight to a storage wider than 64 bits. Such a machine runs on
// XSIM's interpreter, whose wide read path (ExecEngine::readLoc) forwards
// in-flight values through the pending-write overlay: full bypass, interlock
// stalls, phase-B forwarding to side effects and sliced writes. Each case
// checks the hand-computed final state and stall attribution, and the
// hardware model, which writes every result at the end of its cycle.
constexpr const char* kWideFlightIsdl = R"ISDL(
machine WIDEFLIGHT {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    register_file R width 96 depth 4;
    register W width 96;
    program_counter PC width 8;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token S8 immediate signed width 8;
    token U8 immediate unsigned width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation li(d: REG, i: S8) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- sext(i, 96); }
      }
      operation shl(d: REG, a: REG, n: U8) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:8] = a;
                 inst[7:0] = n; }
        action { R[d] <- R[a] << n; }
      }
      operation add(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd3; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { R[d] <- R[a] + R[b]; }
      }
      operation addb(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd4; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { R[d] <- R[a] + R[b]; }
        costs { stall = 0; } timing { latency = 2; }
      }
      operation addi(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd5; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { R[d] <- R[a] + R[b]; }
        costs { stall = 1; } timing { latency = 2; }
      }
      operation sethi(d: REG, a: REG) {
        encode { inst[15:12] = 4'd6; inst[11:10] = d; inst[9:8] = a; }
        action { R[d][95:64] <- R[a][31:0]; }
        costs { stall = 0; } timing { latency = 2; }
      }
      operation sx(a: REG) {
        encode { inst[15:12] = 4'd7; inst[9:8] = a; }
        side_effect { W <- W + R[a]; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)ISDL";

struct WideValue {
  const char* storage;
  unsigned element;
  const char* hex;
};

struct WideFlightCase {
  const char* name;
  const char* program;
  std::vector<WideValue> finalState;
  std::uint64_t dataStallCycles;
};

TEST(CosimWideInFlight, InterpreterForwardsAndStallsLikeHardware) {
  // R1 = 2^64 and R2 = 2^96 - 1 before the write under test.
  constexpr const char* kSetup = "li R1, 1\nshl R1, R1, 64\nli R2, -1\n";
  const WideFlightCase cases[] = {
      // Full bypass: `add` reads R3 the cycle after `addb` issued it.
      {"latency 2, stall 0",
       "addb R3, R1, R2\nadd R0, R3, R1\nhalt\n",
       {{"R", 0, "0x1ffffffffffffffff"}, {"R", 3, "0xffffffffffffffff"}},
       0},
      // Interlock: `add` waits one cycle for R3.
      {"latency 2, stall 1",
       "addi R3, R1, R2\nadd R0, R3, R1\nhalt\n",
       {{"R", 0, "0x1ffffffffffffffff"}, {"R", 3, "0xffffffffffffffff"}},
       1},
      // Sliced forwarding: `add` reads R2 while its top word is in flight.
      {"sliced write",
       "li R2, 5\nsethi R2, R2\nadd R3, R2, R2\nhalt\n",
       {{"R", 2, "0x000000050000000000000005"},
        {"R", 3, "0x0000000a000000000000000a"}},
       0},
      // Phase B: `sx` reads R1 only in its side effect, so it forwards both
      // the bypassed and the interlocked write without a stall.
      {"side effect reads in flight",
       "li R2, 3\naddb R1, R1, R2\nsx R1\naddi R1, R1, R1\nsx R1\nhalt\n",
       {{"R", 1, "0x20000000000000006"}, {"W", 0, "0x30000000000000009"}},
       0},
  };
  auto m = parseAndCheckIsdl(kWideFlightIsdl);
  const unsigned rf = unsigned(m->findStorage("R"));
  sim::Xsim xsim(*m);
  ASSERT_FALSE(xsim.uopEnabled());
  hw::HwModel model = hw::buildDatapath(*m, xsim.signatures());
  for (const WideFlightCase& c : cases) {
    SCOPED_TRACE(c.name);
    DiagnosticEngine diags;
    auto prog = sim::Assembler(xsim.signatures())
                    .assemble(cat(kSetup, c.program), diags);
    ASSERT_TRUE(prog.has_value()) << diags.dump();
    std::string err;
    ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
    ASSERT_EQ(xsim.run(100).reason, sim::StopReason::Halted);
    xsim.drainPipeline();

    for (const WideValue& v : c.finalState)
      EXPECT_EQ(xsim.state().read(unsigned(m->findStorage(v.storage)),
                                  v.element),
                BitVector::fromString(96, v.hex))
          << v.storage << "[" << v.element << "]";
    EXPECT_EQ(xsim.stats().dataStallCycles, c.dataStallCycles);
    std::vector<std::uint64_t> byStorage(m->storages.size(), 0);
    byStorage[rf] = c.dataStallCycles;
    EXPECT_EQ(xsim.stats().dataStallsByStorage, byStorage);

    std::vector<std::string> divergences;
    testing::compareWithHardware(*m, xsim, model, *prog, 100, divergences);
    EXPECT_TRUE(divergences.empty()) << join(divergences, "\n");
  }
}

}  // namespace
}  // namespace isdl
