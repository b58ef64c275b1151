// Differential tests of issue by block (ExecEngine::runBlock). The bound
// engine with nothing watching runs blocks; the interpreter and the bound
// engine with a trace callback armed issue one instruction at a time. All
// three must agree on every Stats field, the committed state, the cycle,
// the stop reason and its message: over every bundled arch x kernel, rerun
// and cut at every cycle budget; on traps in the middle of a block; on one
// directed block per rule that makes a block ineligible; and across a
// reload and an engine switch. The share of issues run in blocks is pinned
// on the bundled kernels.

#include <gtest/gtest.h>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/xsim.h"
#include "support/strings.h"
#include "testing/oracle.h"

namespace isdl::sim {
namespace {

std::optional<AssembledProgram> assemble(const Xsim& xsim,
                                         const std::string& source) {
  Assembler assembler(xsim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble(source, diags);
  EXPECT_TRUE(prog.has_value()) << diags.dump() << "\n" << source;
  return prog;
}

/// Appends a line per location where the states of `a` and `b` differ.
void diffState(const Machine& m, const Xsim& a, const Xsim& b,
               const char* bName, std::vector<std::string>& out) {
  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    const StorageDef& st = m.storages[si];
    for (std::uint64_t e = 0; e < st.depth; ++e) {
      const bool same =
          st.width <= 64
              ? a.state().readWord(unsigned(si), e) ==
                    b.state().readWord(unsigned(si), e)
              : a.state().read(unsigned(si), e) ==
                    b.state().read(unsigned(si), e);
      if (!same) out.push_back(cat(st.name, "[", e, "] differs from ", bName));
    }
  }
}

/// The block path and the two per-instruction references, driven through
/// the same calls.
struct Trio {
  const Machine& m;
  Xsim block;   ///< bound engine, nothing watching: runs blocks
  Xsim interp;  ///< the interpreter
  Xsim single;  ///< bound engine with a trace callback: one at a time

  explicit Trio(const Machine& machine)
      : m(machine), block(machine), interp(machine), single(machine) {
    interp.setUopEnabled(false);
    single.setTraceCallback([](std::uint64_t) {});
  }

  bool load(const AssembledProgram& prog) {
    bool ok = true;
    for (Xsim* x : {&block, &interp, &single}) {
      std::string error;
      ok = x->loadProgram(prog, &error) && ok;
      EXPECT_EQ(error, "");
    }
    return ok;
  }

  template <class Drive>
  RunResult all(Drive drive) {
    const RunResult r = drive(block);
    for (Xsim* x : {&interp, &single}) {
      const RunResult s = drive(*x);
      EXPECT_EQ(stopReasonName(r.reason), stopReasonName(s.reason));
      EXPECT_EQ(r.message, s.message);
    }
    expectSame();
    return r;
  }

  void expectSame() {
    ASSERT_TRUE(block.uopEnabled());
    std::vector<std::string> diffs;
    for (auto [x, name] : {std::pair{&interp, "interp"},
                           std::pair{&single, "single"}}) {
      testing::compareStats(block.stats(), x->stats(), "block", name, diffs);
      diffState(m, block, *x, name, diffs);
      if (block.cycle() != x->cycle())
        diffs.push_back(cat("cycle: block=", block.cycle(), " ", name, "=",
                            x->cycle()));
    }
    EXPECT_TRUE(diffs.empty()) << join(diffs, "\n");
  }

  /// Drains all three and compares the state the in-flight writes leave.
  void drainAndCompare() {
    all([](Xsim& x) {
      x.drainPipeline();
      return RunResult{};
    });
  }
};

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

// Three runs to halt, then every cycle budget from 1 to the halt: the block
// path stops at the instruction the per-instruction path stops at.
TEST(BlockIssue, BundledKernelsAtEveryBudget) {
  for (const ArchCase& a : kArchs) {
    auto m = a.loader();
    for (const archs::Benchmark& bench : a.benchmarks()) {
      SCOPED_TRACE(::testing::Message() << a.name << "/" << bench.name);
      Trio trio(*m);
      auto prog = assemble(trio.block, bench.source);
      ASSERT_TRUE(prog && trio.load(*prog));
      for (int rerun = 0; rerun < 3; ++rerun) {
        EXPECT_EQ(trio.all([&](Xsim& x) {
                        x.reset();
                        return x.run(bench.maxCycles);
                      }).reason,
                  StopReason::Halted);
        EXPECT_GT(trio.block.blockIssues(), 0u);
        trio.drainAndCompare();
      }
      const std::uint64_t halt = trio.block.stats().cycles;
      for (std::uint64_t budget = 1; budget <= halt && !HasFailure();
           ++budget)
        trio.all([&](Xsim& x) {
          x.reset();
          return x.run(budget);
        });
      if (HasFailure()) return;
    }
  }
}

// The share of issues run in blocks: on the first run after a load (a
// leader's block is built on its second arrival, so a loop body's first
// pass issues one at a time) and on a rerun, which keeps the blocks the
// first run built and so issues everything in blocks.
TEST(BlockIssue, BlockShareOnBundledKernels) {
  struct Share {
    const char* kernel;
    std::uint64_t instructions, cold;
  };
  const Share expected[] = {
      {"SPAM/dot64", 844, 819},     {"SPAM/saxpy64", 910, 879},
      {"SPAM/fir8x64", 4753, 4718}, {"SPAM/gather16", 135, 120},
      {"SPAM/mat4x4", 994, 957},    {"SPAM2/dot64", 844, 819},
      {"SPAM2/vecsum64", 264, 252}, {"SREP/fib20", 108, 95},
      {"SREP/dot64", 971, 945},     {"SREP/gcd", 73, 59},
      {"TDSP/fir8", 33, 21},        {"TDSP/memcpy8", 29, 21},
  };
  const Share* next = expected;
  std::uint64_t instructions = 0, cold = 0;
  for (const ArchCase& a : kArchs) {
    auto m = a.loader();
    for (const archs::Benchmark& bench : a.benchmarks()) {
      ASSERT_NE(next, std::end(expected));
      const Share& want = *next++;
      ASSERT_EQ(cat(a.name, "/", bench.name), want.kernel);
      Xsim x(*m);
      auto prog = assemble(x, bench.source);
      ASSERT_TRUE(prog && x.loadProgram(*prog));
      ASSERT_EQ(x.run(bench.maxCycles).reason, StopReason::Halted);
      EXPECT_EQ(x.stats().instructions, want.instructions) << want.kernel;
      EXPECT_EQ(x.blockIssues(), want.cold) << want.kernel;
      instructions += x.stats().instructions;
      cold += x.blockIssues();
      x.reset();
      ASSERT_EQ(x.run(bench.maxCycles).reason, StopReason::Halted);
      EXPECT_EQ(x.blockIssues(), want.instructions) << want.kernel;
    }
  }
  EXPECT_EQ(instructions, 9958u);  // one pass of perfbench's `sim` op set
  EXPECT_EQ(cold, 9705u);          // 97.5 %
}

/// A machine with a counted loop and one operation per rule a block can
/// break. R is 8 bits wide and DM 8 elements deep, so a store through a
/// register can leave it.
constexpr const char* kLoopIsdl = R"(
machine LOOP {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 64;
    data_memory DM width 8 depth 8;
    register_file R width 8 depth 4;
    register_file W width 96 depth 2;
    program_counter PC width 8;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token WR enum width 1 prefix "W" range 0 .. 1;
    token S8 immediate signed width 8;
    token U8 immediate unsigned width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation li(d: REG, i: S8) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
      }
      operation addi(d: REG, i: S8) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- R[d] + i; }
      }
      operation st(a: REG, v: REG) {
        encode { inst[15:12] = 4'd3; inst[11:10] = a; inst[9:8] = v; }
        action { DM[R[a]] <- R[v]; }
      }
      operation bnz(a: REG, t: U8) {
        encode { inst[15:12] = 4'd4; inst[11:10] = a; inst[7:0] = t; }
        action { if (R[a] != 8'd0) { PC <- t; } }
        costs { cycle = 2; }
      }
      operation clash(a: REG) {
        encode { inst[15:12] = 4'd5; inst[11:10] = a; }
        action { if (R[a] == 8'd7) { R[1] <- 8'd1; } R[1] <- 8'd2; }
      }
      operation lis(d: REG, i: S8) {
        encode { inst[15:12] = 4'd6; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
        costs { stall = 1; }
        timing { latency = 2; }
      }
      operation ldx(d: REG, a: REG) {
        encode { inst[15:12] = 4'd7; inst[11:10] = d; inst[9:8] = a; }
        action { R[d] <- R[R[a][1:0]]; }
      }
      operation cmov(d: REG, a: REG, c: REG) {
        encode { inst[15:12] = 4'd8; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = c; }
        action { if (R[c] != 8'd0) { R[d] <- R[a]; } }
      }
      operation li3(d: REG, i: S8) {
        encode { inst[15:12] = 4'd9; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
        timing { latency = 3; }
      }
      operation busy(d: REG, i: S8) {
        encode { inst[15:12] = 4'd10; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
        timing { usage = 3; }
      }
      operation bnzb(a: REG, t: U8) {
        encode { inst[15:12] = 4'd14; inst[11:10] = a; inst[7:0] = t; }
        action { if (R[a] != 8'd0) { PC <- t; } }
        timing { usage = 3; }
      }
      operation wlo(w: WR, v: REG) {
        encode { inst[15:12] = 4'd11; inst[11:11] = w; inst[9:8] = v; }
        action { W[w][7:0] <- R[v]; }
      }
      operation rdpc(d: REG) {
        encode { inst[15:12] = 4'd12; inst[11:10] = d; }
        action { R[d] <- PC; }
      }
      operation mv(d: REG, a: REG) {
        encode { inst[15:12] = 4'd13; inst[11:10] = d; inst[9:8] = a; }
        action { R[d] <- R[a]; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)";

/// Runs `program` on a fresh trio over the LOOP machine, compares, drains
/// and compares again; returns the block path's stop.
RunResult runLoopProgram(Trio& trio, const std::string& program) {
  auto prog = assemble(trio.block, program);
  EXPECT_TRUE(prog && trio.load(*prog));
  const RunResult r = trio.all([](Xsim& x) { return x.run(1000); });
  trio.drainAndCompare();
  return r;
}

// A loop whose body traps on its third pass, the second run of its block:
// the block's applied writes are undone, and the re-run one instruction at
// a time traps where the per-instruction path traps. Running on traps
// again; a reset and rerun (with the block kept) traps the same way.
TEST(BlockIssue, TrapMidBlockOnSecondEntry) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  struct Case {
    const char* body;
    const char* message;
  };
  const Case cases[] = {
      // R0 = 6, 7, 8: the third store leaves DM.
      {"st R0, R2", "at address 3: write to DM[8] is out of range"},
      // R0 = 5, 6, 7: the third pass writes R[1] twice in phase A.
      {"clash R0",
       "at address 3: write conflict: two RTL statements write R[1] in the "
       "same cycle"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    Trio trio(*m);
    const bool store = std::string(c.body).starts_with("st");
    const RunResult r = runLoopProgram(
        trio, cat("li R0, ", store ? 5 : 4,
                  "\n"
                  "li R2, -1\n"
                  "loop: addi R0, 1\n",
                  c.body,
                  "\n"
                  "bnz R2, loop\n"
                  "halt\n"));
    EXPECT_EQ(r.reason, StopReason::RuntimeError);
    EXPECT_EQ(r.message, c.message);
    // The second pass ran as a block; the third one's block trapped and
    // left no trace in the state.
    EXPECT_EQ(trio.block.blockIssues(), 3u);
    EXPECT_EQ(trio.block.state().readWord(
                  unsigned(m->findStorage("R")), 0),
              store ? 8u : 7u);
    EXPECT_EQ(trio.all([](Xsim& x) { return x.run(1000); }).message,
              c.message);
    EXPECT_EQ(trio.all([](Xsim& x) {
                    x.reset();
                    return x.run(1000);
                  }).message,
              c.message);
    // The rerun finds blocks built: the program's head and first pass
    // (addresses 0 to 4), then the second pass (2 to 4).
    EXPECT_EQ(trio.block.blockIssues(), 8u);
  }
}

// One block per ineligibility rule, as the body of a loop run three times.
// The loop's leader is the body's first instruction; its block is built on
// the second pass and found ineligible, so that pass and the third issue
// the body one instruction at a time. Instructions later in the body that
// are reached with nothing in flight lead blocks of their own, which is
// what `blockIssues` counts. An eligible body runs whole on passes two and
// three.
TEST(BlockIssue, IneligibleBlocks) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  struct Case {
    const char* rule;
    const char* body;
    std::uint64_t blockIssues;
  };
  const Case cases[] = {
      // Control: lis's interlocked write to R1 and mv's read of it are both
      // pinned, so the whole body (4 instructions) runs as a block twice.
      {"eligible", "lis R1, 5\nmv R3, R1", 8},
      // Eligible too: busy keeps the unit busy for 3 cycles, so mv waits
      // 2 cycles inside the block.
      {"eligible with a structural stall", "busy R1, 5\nmv R3, R1", 8},
      // The read's element comes from R0 at run time. [addi, bnz] lead.
      {"interlock with a run-time element", "lis R1, 5\nldx R3, R0", 4},
      // The read of R1 sits under cmov's data-dependent branch.
      {"interlock under a data-dependent branch", "lis R1, 5\ncmov R3, R1, R2",
       4},
      // li's write to R1 retires before li3's. Only [bnz] leads: li3's write
      // is still in flight when addi issues.
      {"write retires before an earlier overlapping one", "li3 R1, 5\nli R1, 7",
       2},
      // W is 96 bits wide. [nop, addi, bnz] lead.
      {"write to a storage wider than 64 bits", "wlo W1, R2\nnop", 6},
      // rdpc is not the leader; it leads [rdpc, addi, bnz] itself.
      {"a non-leader reads the PC", "nop\nrdpc R3", 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    Trio trio(*m);
    const RunResult r = runLoopProgram(trio, cat("li R2, 3\n"
                                                 "loop: ",
                                                 c.body,
                                                 "\n"
                                                 "addi R2, -1\n"
                                                 "bnz R2, loop\n"
                                                 "halt\n"));
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(trio.block.blockIssues(), c.blockIssues);
    EXPECT_EQ(trio.block.stats().instructions, 14u);
  }
}

// A block that ends with its unit still busy: bnzb keeps it busy 3 cycles
// and takes 1, so the next pass's first instruction waits 2 cycles and the
// loop's leader never arrives with the unit free. On the rerun the
// program's head, [li, busy, mv, addi, bnzb], runs as a block, and each
// later pass issues busy and mv one at a time (both wait for the unit)
// and then runs [addi, bnzb]: 5 + 2 x 2 issues in blocks.
TEST(BlockIssue, BlockLeavingItsUnitBusy) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  Trio trio(*m);
  auto prog = assemble(trio.block, "li R2, 3\n"
                                   "loop: busy R1, 5\n"
                                   "mv R3, R1\n"
                                   "addi R2, -1\n"
                                   "bnzb R2, loop\n"
                                   "halt\n");
  ASSERT_TRUE(prog && trio.load(*prog));
  for (int run = 0; run < 2; ++run)
    EXPECT_EQ(trio.all([](Xsim& x) {
                    x.reset();
                    return x.run(1000);
                  }).reason,
              StopReason::Halted);
  EXPECT_EQ(trio.block.blockIssues(), 9u);
  EXPECT_GT(trio.block.stats().structStallCycles, 0u);
  trio.drainAndCompare();
}

// A write still in flight when its block ends, which only a block left by
// a halt can have (a loop's branch back finds the write in flight and its
// leader busy). li3's write retires at the end of cycle 2 and the halt's
// window ends at cycle 1, so the rerun, which reaches the block a second
// time, issues it one instruction at a time and stops with R1 unwritten.
TEST(BlockIssue, IneligibleBlockWithAWriteRetiringAfterIt) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  Trio trio(*m);
  auto prog = assemble(trio.block, "li3 R1, 5\nhalt\n");
  ASSERT_TRUE(prog && trio.load(*prog));
  for (int run = 0; run < 2; ++run)
    EXPECT_EQ(trio.all([](Xsim& x) {
                    x.reset();
                    return x.run(1000);
                  }).reason,
              StopReason::Halted);
  EXPECT_EQ(trio.block.blockIssues(), 0u);
  EXPECT_EQ(trio.block.state().readWord(unsigned(m->findStorage("R")), 1),
            0u);
  trio.drainAndCompare();
  EXPECT_EQ(trio.block.state().readWord(unsigned(m->findStorage("R")), 1),
            5u);
}

// A second load drops the first program's blocks, whose addresses now hold
// other instructions; so does switching engines. Either way the next run
// builds its blocks again, as the first run after a load does.
TEST(BlockIssue, ReloadAndEngineSwitchDropBlocks) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  Trio trio(*m);
  const std::string first =
      "li R2, 3\nloop: li R1, 5\nmv R3, R1\naddi R2, -1\nbnz R2, loop\nhalt\n";
  // The same leader, a longer body, and a store the first body lacks.
  const std::string second =
      "li R2, 4\nloop: addi R3, 1\nst R2, R3\nmv R1, R3\naddi R2, -1\n"
      "bnz R2, loop\nhalt\n";
  EXPECT_EQ(runLoopProgram(trio, first).reason, StopReason::Halted);
  EXPECT_EQ(trio.block.blockIssues(), 8u);
  trio.all([](Xsim& x) {
    x.reset();
    return x.run(1000);
  });
  EXPECT_EQ(trio.block.blockIssues(), 14u);  // every issue, li R2 included

  EXPECT_EQ(runLoopProgram(trio, second).reason, StopReason::Halted);
  EXPECT_EQ(trio.block.blockIssues(), 15u);  // passes 2 to 4 of 5 issues

  for (Xsim* x : {&trio.block, &trio.single}) {
    x->setUopEnabled(false);
    x->setUopEnabled(true);
  }
  trio.all([](Xsim& x) {
    x.reset();
    return x.run(1000);
  });
  trio.drainAndCompare();
  EXPECT_EQ(trio.block.blockIssues(), 15u);
}

}  // namespace
}  // namespace isdl::sim
