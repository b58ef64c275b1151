// Differential tests of the bound engine (sim/uop.h) against the
// interpreter over whole simulator sessions. Every Stats field, the
// committed state, the cycle, the stop reason and message, and the XTRACE
// event stream must agree after each step of a session: runs to halt,
// reset() and rerun, a second loadProgram, step(n) in uneven chunks,
// breakpoints, and runtime traps in the middle of a program. The inputs are
// every bundled arch × kernel, a fixed set of generated machines, and
// directed programs for the delayed-write queue on a small machine.

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/xsim.h"
#include "support/strings.h"
#include "test_machines.h"
#include "testing/machinegen.h"
#include "testing/oracle.h"
#include "testing/programgen.h"

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

std::vector<obs::TraceEvent> events(const Xsim& xsim) {
  std::vector<obs::TraceEvent> out;
  if (xsim.trace())
    xsim.trace()->forEach([&](const obs::TraceEvent& e) { out.push_back(e); });
  return out;
}

/// The bound engine and the interpreter side by side, both profiling and,
/// with `trace`, tracing, driven through the same calls. Without the trace
/// the bound engine's run() issues by block under the profile.
struct Pair {
  const Machine& m;
  Xsim bound;
  Xsim interp;

  explicit Pair(const Machine& machine, bool trace = true)
      : m(machine), bound(machine), interp(machine) {
    interp.setUopEnabled(false);
    for (Xsim* x : {&bound, &interp}) {
      if (trace) x->enableTrace(1 << 18);
      x->enableProfile();
    }
  }

  bool load(const AssembledProgram& prog) {
    std::string e1, e2;
    bool ok1 = bound.loadProgram(prog, &e1), ok2 = interp.loadProgram(prog, &e2);
    EXPECT_EQ(ok1, ok2);
    EXPECT_EQ(e1, e2);
    return ok1 && ok2;
  }

  template <class Drive>
  RunResult both(Drive drive) {
    RunResult a = drive(bound), b = drive(interp);
    EXPECT_EQ(a.reason, b.reason) << stopReasonName(a.reason) << " vs "
                                  << stopReasonName(b.reason);
    EXPECT_EQ(a.message, b.message);
    expectSame();
    return a;
  }

  void expectSame() {
    ASSERT_TRUE(bound.uopEnabled());
    ASSERT_FALSE(interp.uopEnabled());
    std::vector<std::string> diffs;
    testing::compareStats(bound.stats(), interp.stats(), "bound", "interp",
                          diffs);
    testing::compareFinalState(m, bound, interp, "bound", "interp", diffs);
    EXPECT_TRUE(diffs.empty()) << join(diffs, "\n");
    EXPECT_EQ(bound.cycle(), interp.cycle());
    // Stall attribution sums to the totals, after a trap too.
    const Stats& s = bound.stats();
    EXPECT_EQ(std::accumulate(s.dataStallsByStorage.begin(),
                              s.dataStallsByStorage.end(), std::uint64_t{0}),
              s.dataStallCycles);
    EXPECT_EQ(std::accumulate(s.structStallsByField.begin(),
                              s.structStallsByField.end(), std::uint64_t{0}),
              s.structStallCycles);
    // The profile's heatmaps count the same reads and writes. (The rest of
    // the report is the Stats above plus wall-clock counters.)
    const obs::MetricsReport ra = bound.metricsReport();
    const obs::MetricsReport rb = interp.metricsReport();
    ASSERT_EQ(ra.heatmaps.size(), rb.heatmaps.size());
    for (std::size_t i = 0; i < ra.heatmaps.size(); ++i)
      EXPECT_TRUE(ra.heatmaps[i] == rb.heatmaps[i]) << ra.heatmaps[i].storage;

    std::vector<obs::TraceEvent> ea = events(bound), eb = events(interp);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      const obs::TraceEvent &x = ea[i], &y = eb[i];
      EXPECT_TRUE(x.kind == y.kind && x.field == y.field && x.op == y.op &&
                  x.storage == y.storage && x.elem == y.elem &&
                  x.cycle == y.cycle && x.dur == y.dur && x.addr == y.addr)
          << "trace event " << i << " differs";
      if (::testing::Test::HasFailure()) return;
    }
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

// Run to halt, drain, reset and rerun on the same bound records, then load
// the arch's next kernel into the same simulators and run that; traced, and
// untraced, where the bound engine runs blocks under the profile.
TEST(BoundDiff, BundledKernelsAcrossSessions) {
  for (bool trace : {true, false})
  for (const ArchCase& a : kArchs) {
    auto m = a.loader();
    const std::vector<archs::Benchmark> benches = a.benchmarks();
    for (std::size_t k = 0; k < benches.size(); ++k) {
      const archs::Benchmark& bench = benches[k];
      const archs::Benchmark& next = benches[(k + 1) % benches.size()];
      SCOPED_TRACE(::testing::Message() << a.name << "/" << bench.name
                                        << (trace ? "" : ", untraced"));
      Pair pair(*m, trace);
      auto prog = assemble(pair.bound, bench.source);
      auto prog2 = assemble(pair.bound, next.source);
      ASSERT_TRUE(prog && prog2);
      ASSERT_TRUE(pair.load(*prog));
      auto run = [&](Xsim& x) { return x.run(bench.maxCycles); };
      EXPECT_EQ(pair.both(run).reason, StopReason::Halted);
      pair.both([](Xsim& x) {
        x.drainPipeline();
        return RunResult{};
      });
      for (int rerun = 0; rerun < 2; ++rerun)
        pair.both([&](Xsim& x) {
          x.reset();
          return x.run(bench.maxCycles);
        });
      if (!trace) {
        EXPECT_GT(pair.bound.blockIssues(), 0u);
      }
      ASSERT_TRUE(pair.load(*prog2));
      EXPECT_EQ(pair.both([&](Xsim& x) { return x.run(next.maxCycles); })
                    .reason,
                StopReason::Halted);
      if (HasFailure()) return;
    }
  }
}

// step(n) in uneven chunks, then breakpoints inside the kernel's loop.
TEST(BoundDiff, SteppingAndBreakpoints) {
  for (const ArchCase& a : kArchs) {
    auto m = a.loader();
    const archs::Benchmark bench = a.benchmarks()[0];
    SCOPED_TRACE(::testing::Message() << a.name << "/" << bench.name);
    Pair pair(*m);
    auto prog = assemble(pair.bound, bench.source);
    ASSERT_TRUE(prog && pair.load(*prog));

    // The cycle budget and the failure check keep a diverging engine from
    // stepping forever.
    StopReason reason = StopReason::MaxInstructions;
    for (std::uint64_t n = 1; reason == StopReason::MaxInstructions &&
                              pair.bound.cycle() < bench.maxCycles &&
                              !HasFailure();
         n = n % 7 + 1)
      reason = pair.both([&](Xsim& x) { return x.step(n); }).reason;
    EXPECT_EQ(reason, StopReason::Halted);
    if (HasFailure()) return;

    // Break where the twentieth instruction issues, inside the kernel's
    // loop, for a few hits; then run on to the halt.
    pair.both([](Xsim& x) {
      x.reset();
      return x.step(20);
    });
    const std::uint64_t at = pair.bound.state().pc();
    for (Xsim* x : {&pair.bound, &pair.interp}) {
      x->addBreakpoint(at);
      x->reset();
    }
    for (int hit = 0; hit < 4; ++hit) {
      reason = pair.both([&](Xsim& x) { return x.run(bench.maxCycles); })
                   .reason;
      if (reason != StopReason::Breakpoint || HasFailure()) break;
    }
    EXPECT_EQ(reason, StopReason::Breakpoint);
    for (Xsim* x : {&pair.bound, &pair.interp}) x->removeBreakpoint(at);
    EXPECT_EQ(pair.both([&](Xsim& x) { return x.run(bench.maxCycles); })
                  .reason,
              StopReason::Halted);
    if (HasFailure()) return;
  }
}

/// Out-of-range writes (a run-time index, and a constant one the binder
/// sees at bind time) and an out-of-range read.
constexpr const char* kTrapIsdl = R"(
machine TRAP {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    data_memory DM width 8 depth 10;
    register_file R width 8 depth 4;
    program_counter PC width 8;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token U4 immediate unsigned width 4;
    token S8 immediate signed width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation li(d: REG, i: S8) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
      }
      operation st(a: REG, v: REG) {
        encode { inst[15:12] = 4'd2; inst[11:10] = a; inst[9:8] = v; }
        action { DM[R[a]] <- R[v]; }
      }
      operation sti(i: U4, v: REG) {
        encode { inst[15:12] = 4'd3; inst[11:10] = v; inst[3:0] = i; }
        action { DM[i] <- R[v]; }
      }
      operation ld(d: REG, a: REG) {
        encode { inst[15:12] = 4'd4; inst[11:10] = d; inst[9:8] = a; }
        action { R[d] <- DM[R[a]]; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)";

TEST(BoundDiff, RuntimeTrapsMidProgram) {
  auto trap = parseAndCheckIsdl(kTrapIsdl);
  auto mini = parseAndCheckIsdl(testing::kMiniIsdl);
  struct Case {
    const Machine& m;
    const char* program;
    const char* message;
  };
  const Case cases[] = {
      {*trap, "li R1, 9\nst R1, R1\nli R2, 12\nst R2, R1\nhalt\n",
       "at address 3: write to DM[12] is out of range"},
      {*trap, "li R1, 3\nsti 9, R1\nsti 12, R1\nhalt\n",
       "at address 2: write to DM[12] is out of range"},
      {*trap, "li R1, 9\nld R2, R1\nli R1, 11\nld R2, R1\nhalt\n",
       "at address 3: access to DM[11] is out of range (depth 10)"},
      {*mini, "li R2, 1\nli R3, 2\n{ add R1, R2, R3 | mv R1, R2 }\nhalt\n",
       "at address 2: write conflict: two RTL statements write RF[1] in the "
       "same cycle"},
  };
  for (const Case& c : cases)
  for (bool trace : {true, false}) {
    SCOPED_TRACE(cat(c.program, trace ? "" : ", untraced"));
    Pair pair(c.m, trace);
    auto prog = assemble(pair.bound, c.program);
    ASSERT_TRUE(prog && pair.load(*prog));
    RunResult r = pair.both([](Xsim& x) { return x.run(100); });
    EXPECT_EQ(r.reason, StopReason::RuntimeError);
    EXPECT_EQ(r.message, c.message);
    // A reset after the trap starts clean, and the trap repeats.
    r = pair.both([](Xsim& x) {
      x.reset();
      return x.run(100);
    });
    EXPECT_EQ(r.message, c.message);
  }
}

// --- the delayed-write queue -------------------------------------------------

/// Writes of every latency the queue must order: bypassed latencies 1, 2, 3
/// and 40, an interlocked latency 2, a phase-B write, two side effects that
/// drive the same bits, and byte slices of a 96-bit register file (the
/// queue keeps the values of such writes apart from the others). Nothing
/// reads W, so the machine still binds.
constexpr const char* kQueueIsdl = R"(
machine QUEUE {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 128;
    data_memory DM width 8 depth 10;
    register_file R width 8 depth 4;
    register_file W width 96 depth 2;
    program_counter PC width 8;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token WR enum width 1 prefix "W" range 0 .. 1;
    token S8 immediate signed width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation li(d: REG, i: S8) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
      }
      operation li2(d: REG, i: S8) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
        timing { latency = 2; }
      }
      operation li3(d: REG, i: S8) {
        encode { inst[15:12] = 4'd3; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
        timing { latency = 3; }
      }
      operation lis(d: REG, i: S8) {
        encode { inst[15:12] = 4'd4; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
        costs { stall = 1; }
        timing { latency = 2; }
      }
      operation far(d: REG, i: S8) {
        encode { inst[15:12] = 4'd5; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
        timing { latency = 40; }
      }
      operation mv(d: REG, a: REG) {
        encode { inst[15:12] = 4'd6; inst[11:10] = d; inst[9:8] = a; }
        action { R[d] <- R[a]; }
      }
      operation wst(a: REG, v: REG) {
        encode { inst[15:12] = 4'd7; inst[11:10] = a; inst[9:8] = v; }
        action { W[1][7:0] <- R[v]; DM[R[a]] <- R[v]; }
      }
      operation wlo(w: WR, v: REG) {
        encode { inst[15:12] = 4'd8; inst[11:11] = w; inst[9:8] = v; }
        action { W[w][7:0] <- R[v]; }
      }
      operation whi(w: WR, v: REG) {
        encode { inst[15:12] = 4'd9; inst[11:11] = w; inst[9:8] = v; }
        action { W[w][71:64] <- R[v]; }
      }
      operation inc(d: REG) {
        encode { inst[15:12] = 4'd10; inst[11:10] = d; }
        action { R[d] <- R[d] + 8'd1; }
        side_effect { R[0] <- R[d]; }
      }
      operation twice(d: REG) {
        encode { inst[15:12] = 4'd11; inst[11:10] = d; }
        action { R[1] <- R[d] + 8'd1; }
        side_effect { R[d] <- 8'd1; R[d][0:0] <- 1'b0; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)";

/// Runs `program` on both engines of a fresh pair over the QUEUE machine
/// (same stop, Stats, stall attribution, state, heatmaps and trace events),
/// drains both, and compares again.
RunResult runQueueProgram(Pair& pair, const std::string& program,
                          bool drain = true) {
  auto prog = assemble(pair.bound, program);
  EXPECT_TRUE(prog && pair.load(*prog));
  RunResult r = pair.both([](Xsim& x) { return x.run(1000); });
  if (drain)
    pair.both([](Xsim& x) {
      x.drainPipeline();
      return RunResult{};
    });
  return r;
}

std::uint64_t word(const Xsim& x, const char* storage, std::uint64_t elem) {
  return x.state().readWord(unsigned(x.machine().findStorage(storage)), elem);
}

// Writes to one register retire in commit-cycle order whatever order they
// were staged in, and writes that retire in the same cycle retire in staging
// order. A read in between sees the bypassed in-flight value.
TEST(DelayedWriteQueue, WriteAfterWriteRetiresInCommitCycleOrder) {
  auto m = parseAndCheckIsdl(kQueueIsdl);
  Pair pair(*m);
  const RunResult r = runQueueProgram(pair,
                                      "li3 R1, 5\n"   // cycle 0, retires in 2
                                      "li R1, 7\n"    // cycle 1, retires in 1
                                      "mv R3, R1\n"   // cycle 2: sees 5
                                      "li3 R2, 4\n"   // cycle 3, retires in 5
                                      "li2 R2, 6\n"   // cycle 4, retires in 5
                                      "li R0, 1\n"
                                      "halt\n");
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(word(pair.bound, "R", 1), 5u);
  EXPECT_EQ(word(pair.bound, "R", 2), 6u);
  EXPECT_EQ(word(pair.bound, "R", 3), 5u);
  EXPECT_EQ(pair.bound.stats().dataStallCycles, 0u);
}

// A write staged before an interlock stall is dropped for the retry, and the
// trap of the retry drops what the retry staged, a 96-bit write included:
// nothing of the trapping instruction ever retires. A reset and rerun then
// matches simulators that never ran.
TEST(DelayedWriteQueue, TrapAfterStallRetryLeavesNoStagedWrite) {
  auto m = parseAndCheckIsdl(kQueueIsdl);
  const std::string program =
      "li R3, 1\n"
      "lis R1, 12\n"  // R1 = 12, interlocked, from the end of cycle 2
      "wst R1, R3\n"  // stalls on R1, then writes DM[12]: out of range
      "halt\n";
  Pair pair(*m);
  const RunResult r = runQueueProgram(pair, program);
  EXPECT_EQ(r.reason, StopReason::RuntimeError);
  EXPECT_EQ(r.message, "at address 2: write to DM[12] is out of range");
  // The retry happened, but a trapping instruction's interlock counts
  // nowhere: neither in the totals nor in the attribution.
  const unsigned rf = unsigned(m->findStorage("R"));
  EXPECT_EQ(pair.bound.stats().dataStallsByStorage[rf], 0u);
  EXPECT_EQ(word(pair.bound, "DM", 0), 0u);
  EXPECT_EQ(word(pair.bound, "W", 1), 0u);
  EXPECT_EQ(word(pair.bound, "R", 1), 12u);

  pair.both([](Xsim& x) {
    x.reset();
    return x.run(1000);
  });
  Pair fresh(*m);
  auto prog = assemble(fresh.bound, program);
  ASSERT_TRUE(prog && fresh.load(*prog));
  fresh.both([](Xsim& x) { return x.run(1000); });
  for (auto [used, clean] : {std::pair{&pair.bound, &fresh.bound},
                             std::pair{&pair.interp, &fresh.interp}}) {
    std::vector<std::string> diffs;
    testing::compareStats(used->stats(), clean->stats(), "rerun", "fresh",
                          diffs);
    testing::compareFinalState(*m, *used, *clean, "rerun", "fresh", diffs);
    EXPECT_TRUE(diffs.empty()) << join(diffs, "\n");
    EXPECT_EQ(used->cycle(), clean->cycle());
  }
}

// Two side effects of one instruction driving the same bit conflict. The
// instruction's phase-A write was published before phase B ran, so it stays
// in flight: running on issues the instruction again, whose phase A sees
// that write bypassed, and the drain retires both.
TEST(DelayedWriteQueue, WriteConflictInPhaseB) {
  auto m = parseAndCheckIsdl(kQueueIsdl);
  Pair pair(*m);
  RunResult r = runQueueProgram(pair,
                                "li R1, 3\n"
                                "twice R1\n"  // R1 <- 4, then the conflict
                                "halt\n",
                                /*drain=*/false);
  const char* message =
      "at address 1: write conflict: two RTL statements write R[1] in the "
      "same cycle";
  EXPECT_EQ(r.reason, StopReason::RuntimeError);
  EXPECT_EQ(r.message, message);
  EXPECT_EQ(word(pair.bound, "R", 1), 3u);
  r = pair.both([](Xsim& x) { return x.run(1000); });
  EXPECT_EQ(r.message, message);
  pair.both([](Xsim& x) {
    x.drainPipeline();
    return RunResult{};
  });
  EXPECT_EQ(word(pair.bound, "R", 1), 5u);
}

// A 96-bit write staged before an interlock stall is dropped and staged
// again on the retry, reusing the dropped value's place; later slices of
// the same element and of the other one retire on top of it.
TEST(DelayedWriteQueue, WideWriteDiscardedThenReused) {
  auto m = parseAndCheckIsdl(kQueueIsdl);
  Pair pair(*m);
  const RunResult r = runQueueProgram(pair,
                                      "li R1, 0x11\n"
                                      "lis R2, 0x22\n"
                                      "wlo W0, R2\n"  // stalls one cycle
                                      "whi W0, R1\n"
                                      "wlo W1, R1\n"
                                      "lis R2, 0x33\n"
                                      "whi W1, R2\n"  // stalls one cycle
                                      "halt\n");
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(pair.bound.stats().dataStallCycles, 2u);
  const unsigned w = unsigned(m->findStorage("W"));
  EXPECT_EQ(pair.bound.state().read(w, 0),
            BitVector::fromString(96, "0x110000000000000022"));
  EXPECT_EQ(pair.bound.state().read(w, 1),
            BitVector::fromString(96, "0x330000000000000011"));
}

// Long-latency writes stay in flight while more than 32 short ones are
// staged ahead of them and retire, so the queue reclaims its retired prefix
// mid-run, with writes still in flight on both sides of it.
TEST(DelayedWriteQueue, RetiredPrefixReclaimMidRun) {
  auto m = parseAndCheckIsdl(kQueueIsdl);
  Pair pair(*m);
  std::string program = "far R1, 9\nli3 R3, 2\n";
  for (int i = 0; i < 36; ++i) {
    program += cat("li R2, ", i, "\n");
    if (i % 5 == 0) program += "inc R2\n";
    if (i == 20) program += "mv R3, R1\nfar R1, 10\n";
  }
  program += "mv R2, R1\nhalt\n";
  const RunResult r = runQueueProgram(pair, program);
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(word(pair.bound, "R", 0), 35u);  // inc R2 reads li R2, 35
  EXPECT_EQ(word(pair.bound, "R", 1), 10u);
  EXPECT_EQ(word(pair.bound, "R", 2), 10u);  // forwarded from the second far
  EXPECT_EQ(word(pair.bound, "R", 3), 9u);   // forwarded from the first
}

// Generated machines: every seed's machine, four programs each from one
// AssemblyGenerator, loaded one after the other into the same simulators;
// traced, and untraced, where the bound engine's reruns run blocks under
// the profile.
TEST(BoundDiff, GeneratedMachines) {
  std::uint64_t blockIssues = 0;
  for (bool trace : {true, false})
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(::testing::Message() << "machine seed " << seed
                                      << (trace ? "" : ", untraced"));
    std::mt19937_64 mrng(seed);
    testing::MachineSpec spec = testing::randomMachineSpec(mrng);
    spec.seed = seed;
    auto m = parseAndCheckIsdl(testing::emitIsdl(spec));
    ASSERT_NE(m, nullptr);
    Pair pair(*m, trace);
    ASSERT_TRUE(pair.bound.binder().narrow());
    const testing::AssemblyGenerator gen(*m, pair.bound.signatures());
    for (std::uint64_t p = 0; p < 4; ++p) {
      std::mt19937_64 prng(seed * 1000 + p);
      auto prog = assemble(pair.bound, join(gen.generate(prng, 30), "\n") +
                                           "\n");
      ASSERT_TRUE(prog && pair.load(*prog));
      pair.both([](Xsim& x) { return x.run(5000); });
      pair.both([](Xsim& x) {
        x.reset();
        return x.run(5000);
      });
      blockIssues += pair.bound.blockIssues();
      pair.both([](Xsim& x) {
        x.reset();
        return x.step(7);
      });
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(blockIssues, 0u);  // untraced reruns ran blocks
}

}  // namespace
}  // namespace isdl::sim
