// Differential tests of the bound engine (sim/uop.h) against the
// interpreter over whole simulator sessions. Every Stats field, the
// committed state, the cycle, the stop reason and message, and the XTRACE
// event stream must agree after each step of a session: runs to halt,
// reset() and rerun, a second loadProgram, step(n) in uneven chunks,
// breakpoints, and runtime traps in the middle of a program. The inputs are
// every bundled arch × kernel and a fixed set of generated machines.

#include <gtest/gtest.h>

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

/// The bound engine and the interpreter side by side, both tracing and
/// profiling, driven through the same calls.
struct Pair {
  const Machine& m;
  Xsim bound;
  Xsim interp;

  explicit Pair(const Machine& machine)
      : m(machine), bound(machine), interp(machine) {
    interp.setUopEnabled(false);
    for (Xsim* x : {&bound, &interp}) {
      x->enableTrace(1 << 18);
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
    // The profile's heatmaps count the same reads and writes. (The rest of
    // the report is the Stats above plus wall-clock counters.)
    const obs::MetricsReport ra = bound.metricsReport();
    const obs::MetricsReport rb = interp.metricsReport();
    ASSERT_EQ(ra.heatmaps.size(), rb.heatmaps.size());
    for (std::size_t i = 0; i < ra.heatmaps.size(); ++i) {
      EXPECT_EQ(ra.heatmaps[i].storage, rb.heatmaps[i].storage);
      EXPECT_EQ(ra.heatmaps[i].reads, rb.heatmaps[i].reads)
          << ra.heatmaps[i].storage;
      EXPECT_EQ(ra.heatmaps[i].writes, rb.heatmaps[i].writes)
          << ra.heatmaps[i].storage;
    }

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
// the arch's next kernel into the same simulators and run that.
TEST(BoundDiff, BundledKernelsAcrossSessions) {
  for (const ArchCase& a : kArchs) {
    auto m = a.loader();
    const std::vector<archs::Benchmark> benches = a.benchmarks();
    for (std::size_t k = 0; k < benches.size(); ++k) {
      const archs::Benchmark& bench = benches[k];
      const archs::Benchmark& next = benches[(k + 1) % benches.size()];
      SCOPED_TRACE(::testing::Message() << a.name << "/" << bench.name);
      Pair pair(*m);
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
      pair.both([&](Xsim& x) {
        x.reset();
        return x.run(bench.maxCycles);
      });
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
  for (const Case& c : cases) {
    SCOPED_TRACE(c.program);
    Pair pair(c.m);
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

// Generated machines: every seed's machine, four programs each from one
// AssemblyGenerator, loaded one after the other into the same simulators.
TEST(BoundDiff, GeneratedMachines) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(::testing::Message() << "machine seed " << seed);
    std::mt19937_64 mrng(seed);
    testing::MachineSpec spec = testing::randomMachineSpec(mrng);
    spec.seed = seed;
    auto m = parseAndCheckIsdl(testing::emitIsdl(spec));
    ASSERT_NE(m, nullptr);
    Pair pair(*m);
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
        return x.step(7);
      });
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace isdl::sim
