// Differential tests of issue by block (ExecEngine::runBlock). The bound
// engine with nothing but the profile watching runs blocks; the interpreter
// and the bound engine with a trace callback armed issue one instruction at
// a time. All three must agree on every Stats field, the committed state,
// the cycle, the stop reason and its message, and, with the profile armed on
// all three, on the storage heatmaps: over every bundled arch x kernel,
// rerun and cut at every cycle budget; over the SPAM-family variants an
// exploration evaluates; on traps in the middle of a block; on one directed
// block per rule that makes a block ineligible; and across a reload, an
// engine switch and the profile switched on or off. The share of issues run
// in blocks is pinned on the bundled kernels, with and without the profile.

#include <gtest/gtest.h>

#include "archs/archs.h"
#include "explore/spamfamily.h"
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

/// Appends a line per element whose heatmap counts differ between `a` and
/// `b` (no line when neither is profiling).
void diffHeat(const Machine& m, const Xsim& a, const Xsim& b,
              const char* bName, std::vector<std::string>& out) {
  const obs::MetricsReport ra = a.metricsReport(), rb = b.metricsReport();
  if (ra.heatmaps == rb.heatmaps) return;
  auto find = [](const obs::MetricsReport& r, const std::string& storage) {
    const obs::MetricsReport::Heat* found = nullptr;
    for (const auto& h : r.heatmaps)
      if (h.storage == storage) found = &h;
    return found;
  };
  for (const StorageDef& st : m.storages) {
    const obs::MetricsReport::Heat *ha = find(ra, st.name),
                                   *hb = find(rb, st.name);
    for (std::uint64_t e = 0; e < st.depth; ++e)
      for (bool reads : {true, false}) {
        auto count = [&](const obs::MetricsReport::Heat* h) {
          return !h ? 0 : reads ? h->readsOf(e) : h->writesOf(e);
        };
        if (count(ha) != count(hb))
          out.push_back(cat(st.name, "[", e, "] ", reads ? "reads" : "writes",
                            ": block=", count(ha), " ", bName, "=",
                            count(hb)));
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

  explicit Trio(const Machine& machine, bool profile = false)
      : m(machine), block(machine), interp(machine), single(machine) {
    interp.setUopEnabled(false);
    single.setTraceCallback([](std::uint64_t) {});
    if (profile) setProfile(true);
  }

  void setProfile(bool on) {
    for (Xsim* x : {&block, &interp, &single})
      on ? x->enableProfile() : x->disableProfile();
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
      diffHeat(m, block, *x, name, diffs);
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
// path stops at the instruction the per-instruction path stops at, and with
// the profile armed counts the same heatmaps.
void expectSameAtEveryBudget(bool profile) {
  for (const ArchCase& a : kArchs) {
    auto m = a.loader();
    for (const archs::Benchmark& bench : a.benchmarks()) {
      SCOPED_TRACE(::testing::Message() << a.name << "/" << bench.name);
      Trio trio(*m, profile);
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
      for (std::uint64_t budget = 1;
           budget <= halt && !::testing::Test::HasFailure(); ++budget)
        trio.all([&](Xsim& x) {
          x.reset();
          return x.run(budget);
        });
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(BlockIssue, BundledKernelsAtEveryBudget) {
  expectSameAtEveryBudget(false);
}

TEST(BlockIssue, ProfiledBundledKernelsAtEveryBudget) {
  expectSameAtEveryBudget(true);
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
  // The profile leaves every block of these kernels on the block path.
  for (bool profile : {false, true}) {
    SCOPED_TRACE(profile ? "profiled" : "unprofiled");
    const Share* next = expected;
    std::uint64_t instructions = 0, cold = 0;
    for (const ArchCase& a : kArchs) {
      auto m = a.loader();
      for (const archs::Benchmark& bench : a.benchmarks()) {
        ASSERT_NE(next, std::end(expected));
        const Share& want = *next++;
        ASSERT_EQ(cat(a.name, "/", bench.name), want.kernel);
        Xsim x(*m);
        if (profile) x.enableProfile();
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
}

// The runs every exploration candidate makes: each of the 16 SPAM-family
// variants' first run after a load, with the profile armed. The block path
// counts the interpreter's heatmaps and runs 97 % of the issues.
TEST(BlockIssue, ProfiledSpamFamilyFirstRuns) {
  std::uint64_t instructions = 0, inBlocks = 0;
  for (unsigned alu = 1; alu <= 4; ++alu)
    for (unsigned mov = 0; mov <= 3; ++mov) {
      const explore::Candidate c = explore::makeSpamVariant({alu, mov});
      SCOPED_TRACE(c.name);
      auto m = parseAndCheckIsdl(c.isdlSource);
      ASSERT_NE(m, nullptr);
      Trio trio(*m, true);
      auto prog = assemble(trio.block, c.appSource);
      ASSERT_TRUE(prog && trio.load(*prog));
      EXPECT_EQ(trio.all([](Xsim& x) { return x.run(10'000'000); }).reason,
                StopReason::Halted);
      trio.drainAndCompare();
      instructions += trio.block.stats().instructions;
      inBlocks += trio.block.blockIssues();
    }
  EXPECT_EQ(instructions, 12992u);
  EXPECT_EQ(inBlocks, 12600u);  // 97.0 %
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
// again; a reset and rerun (with the block kept) traps the same way. Under
// the profile the trapped block leaves no read or write count behind.
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
  for (const Case& c : cases)
  for (bool profile : {false, true}) {
    SCOPED_TRACE(cat(c.body, profile ? ", profiled" : ""));
    Trio trio(*m, profile);
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
      {"write retires before an earlier overlapping one",
       "li3 R1, 5\nli R1, 7", 2},
      // W is 96 bits wide. [nop, addi, bnz] lead.
      {"write to a storage wider than 64 bits", "wlo W1, R2\nnop", 6},
      // rdpc is not the leader; it leads [rdpc, addi, bnz] itself.
      {"a non-leader reads the PC", "nop\nrdpc R3", 6},
      // cmov waits on lis's R1 and branches on it, so the attempt issue()
      // discards may read R2 or not. [addi, bnz] lead.
      {"a waiting instruction branches on data", "lis R1, 5\ncmov R3, R2, R1",
       4},
  };
  for (const Case& c : cases)
    for (bool profile : {false, true}) {
      SCOPED_TRACE(cat(c.rule, profile ? ", profiled" : ""));
      Trio trio(*m, profile);
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

// st waits on lis's R1 and takes its element from it. On the second pass
// the attempt issue() discards reads the R1 the previous pass left, 105,
// and traps, which running st once, with the retired 5, would not: the
// block is ineligible, with the profile and without.
TEST(BlockIssue, WaitingInstructionsDiscardedAttemptTraps) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  for (bool profile : {false, true}) {
    SCOPED_TRACE(profile ? "profiled" : "unprofiled");
    Trio trio(*m, profile);
    const RunResult r = runLoopProgram(trio, "li R2, 3\n"
                                             "loop: lis R1, 5\n"
                                             "st R1, R2\n"
                                             "addi R1, 100\n"
                                             "addi R2, -1\n"
                                             "bnz R2, loop\n"
                                             "halt\n");
    EXPECT_EQ(r.reason, StopReason::RuntimeError);
    EXPECT_EQ(r.message, "at address 2: write to DM[105] is out of range");
    EXPECT_EQ(trio.block.blockIssues(), 0u);
  }
}

/// The block path's heatmap on the LOOP machine: `storage`'s reads or
/// writes of `elem`.
std::uint64_t heat(const Xsim& x, const char* storage, std::uint64_t elem,
                   bool reads) {
  for (const auto& h : x.metricsReport().heatmaps)
    if (h.storage == storage) return reads ? h.readsOf(elem) : h.writesOf(elem);
  return 0;
}

// An interlock retry repeats phase A, so the block counts mv's read of R1
// twice a pass: six reads over the three passes, two of them run as one
// block each.
TEST(BlockIssue, ProfiledInterlockRetryCountsPhaseAAgain) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  Trio trio(*m, true);
  EXPECT_EQ(runLoopProgram(trio, "li R2, 3\n"
                                 "loop: lis R1, 5\n"
                                 "mv R3, R1\n"
                                 "addi R2, -1\n"
                                 "bnz R2, loop\n"
                                 "halt\n")
                .reason,
            StopReason::Halted);
  EXPECT_EQ(trio.block.blockIssues(), 8u);
  EXPECT_GT(trio.block.stats().dataStallCycles, 0u);
  EXPECT_EQ(heat(trio.block, "R", 1, true), 6u);
}

// Every issue writes the program counter once: the scheduler's increment,
// or the branch's retire. A block whose last instruction branches back to
// its own leader starts each run with the PC at that leader, yet its branch
// still counts as the change issue() makes from the branch's own address.
TEST(BlockIssue, ProfiledBranchBackToItsOwnLeader) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  Trio trio(*m, true);
  const std::string loop = "li R2, 5\nloop: addi R2, -1\nbnz R2, loop\nhalt\n";
  EXPECT_EQ(runLoopProgram(trio, loop).reason, StopReason::Halted);
  EXPECT_EQ(trio.block.blockIssues(), 8u);  // passes 2 to 5 of [addi, bnz]
  EXPECT_EQ(heat(trio.block, "PC", 0, false), 12u);
  EXPECT_EQ(trio.block.stats().instructions, 12u);

  // The same on SPAM's dot product, cold and on a rerun that runs every
  // instruction in a block.
  auto spam = archs::loadSpam();
  Trio dot(*spam, true);
  auto prog = assemble(dot.block, archs::spamBenchmarks()[0].source);
  ASSERT_TRUE(prog && dot.load(*prog));
  for (int run = 0; run < 2; ++run) {
    dot.all([](Xsim& x) {
      x.reset();
      return x.run(100000);
    });
    EXPECT_EQ(heat(dot.block, "PC", 0, false), 844u);
    EXPECT_EQ(dot.block.blockIssues(), run == 0 ? 819u : 844u);
  }
}

// The profile switched on after the first run built the blocks, and off
// and on again between runs: the blocks keep running, a run without the
// profile counts nothing, and one with it counts from its start.
TEST(BlockIssue, ProfileSwitchedBetweenRuns) {
  auto m = parseAndCheckIsdl(kLoopIsdl);
  ASSERT_NE(m, nullptr);
  Trio trio(*m);
  EXPECT_EQ(runLoopProgram(trio, "li R2, 3\n"
                                 "loop: lis R1, 5\n"
                                 "mv R3, R1\n"
                                 "st R2, R3\n"
                                 "addi R2, -1\n"
                                 "bnz R2, loop\n"
                                 "halt\n")
                .reason,
            StopReason::Halted);
  auto rerun = [&] {
    return trio.all([](Xsim& x) {
      x.reset();
      return x.run(1000);
    });
  };
  trio.setProfile(true);
  EXPECT_EQ(rerun().reason, StopReason::Halted);
  EXPECT_EQ(trio.block.blockIssues(), 17u);  // every issue
  EXPECT_EQ(heat(trio.block, "R", 1, true), 6u);
  EXPECT_EQ(heat(trio.block, "DM", 3, false), 1u);

  trio.setProfile(false);
  EXPECT_EQ(rerun().reason, StopReason::Halted);
  EXPECT_TRUE(trio.block.metricsReport().heatmaps.empty());
  EXPECT_EQ(trio.block.blockIssues(), 17u);

  // Armed mid-session, without a reset: the counts start at this run.
  trio.setProfile(true);
  trio.all([](Xsim& x) { return x.run(1000); });
  EXPECT_EQ(heat(trio.block, "R", 1, true), 0u);
  EXPECT_EQ(rerun().reason, StopReason::Halted);
  EXPECT_EQ(heat(trio.block, "R", 1, true), 6u);
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
