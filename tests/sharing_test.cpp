// Tests for the resource-sharing pass (paper §4.1, Figure 5): the
// Bron–Kerbosch clique enumerator, the compatibility rules, the
// constraint-derived refinement, and — most importantly — that the rewritten
// netlist still co-simulates bit-true against XSIM.

#include "hw/sharing.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/xsim.h"
#include "synth/gatesim.h"
#include "testing/machinegen.h"

namespace isdl::hw {
namespace {

TEST(MaximalCliques, Triangle) {
  // 0-1, 1-2, 0-2 plus isolated 3.
  std::vector<std::vector<bool>> adj(4, std::vector<bool>(4, false));
  auto edge = [&](unsigned a, unsigned b) { adj[a][b] = adj[b][a] = true; };
  edge(0, 1);
  edge(1, 2);
  edge(0, 2);
  auto cliques = maximalCliques(adj);
  ASSERT_EQ(cliques.size(), 2u);
  bool foundTriangle = false, foundSingleton = false;
  for (auto& c : cliques) {
    std::sort(c.begin(), c.end());
    if (c == std::vector<unsigned>{0, 1, 2}) foundTriangle = true;
    if (c == std::vector<unsigned>{3}) foundSingleton = true;
  }
  EXPECT_TRUE(foundTriangle);
  EXPECT_TRUE(foundSingleton);
}

TEST(MaximalCliques, PathGraph) {
  // 0-1-2: maximal cliques {0,1} and {1,2}.
  std::vector<std::vector<bool>> adj(3, std::vector<bool>(3, false));
  adj[0][1] = adj[1][0] = true;
  adj[1][2] = adj[2][1] = true;
  auto cliques = maximalCliques(adj);
  EXPECT_EQ(cliques.size(), 2u);
  for (auto& c : cliques) EXPECT_EQ(c.size(), 2u);
}

TEST(MaximalCliques, CompleteGraph) {
  std::vector<std::vector<bool>> adj(5, std::vector<bool>(5, true));
  for (unsigned i = 0; i < 5; ++i) adj[i][i] = false;
  auto cliques = maximalCliques(adj);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].size(), 5u);
}

struct BuiltModel {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<sim::Xsim> xsim;
  HwModel model;
};

BuiltModel buildFor(std::unique_ptr<Machine> m) {
  BuiltModel out;
  out.machine = std::move(m);
  out.xsim = std::make_unique<sim::Xsim>(*out.machine);
  out.model = buildDatapath(*out.machine, out.xsim->signatures());
  return out;
}

TEST(Sharing, SrepMergesAluAdders) {
  // SREP's single field has many mutually exclusive 32-bit add/sub users:
  // add, sub, addi, the carry side effect... all must collapse (rule R3).
  auto b = buildFor(archs::loadSrep());
  std::size_t addersBefore = 0;
  for (const auto& [net, tag] : b.model.operatorTags) {
    const Node& n = b.model.netlist.nodes[net];
    if (n.kind == NodeKind::Binary &&
        (n.binOp == rtl::BinOp::Add || n.binOp == rtl::BinOp::Sub) &&
        n.width == 32)
      ++addersBefore;
  }
  // add, sub and addi each instantiate a 32-bit adder/subtractor (the carry
  // side effect's adder is 33 bits wide and forms its own class).
  EXPECT_GE(addersBefore, 3u);
  SharingReport report = shareResources(b.model, *b.machine);
  EXPECT_GT(report.cliquesUsed, 0u);
  EXPECT_LT(report.unitsAfter, report.shareableNodes);
  // All 32-bit architectural adders of the field share one AddSub unit.
  EXPECT_GE(b.model.netlist.countNodes(NodeKind::AddSub), 1u);
  // The netlist stays acyclic.
  EXPECT_NO_THROW(b.model.netlist.checkLevelized());
}

TEST(Sharing, ConstraintsEnableCrossFieldSharing) {
  // Two fields with an exclusive-by-constraint op pair: their multipliers
  // may share only when constraints are honoured (rule R4).
  const char* src = R"(
machine X {
  section format { word_width = 32; }
  section storage {
    instruction_memory IM width 32 depth 16;
    register_file RF width 16 depth 4;
    program_counter PC width 8;
  }
  section global_definitions { token REG enum width 2 prefix "R" range 0 .. 3; }
  section instruction_set {
    field A {
      operation anop() { encode { inst[31:28] = 4'd0; } }
      operation amul(d: REG, a: REG, b: REG) {
        encode { inst[31:28] = 4'd1; inst[27:26] = d; inst[25:24] = a;
                 inst[23:22] = b; }
        action { RF[d] <- RF[a] * RF[b]; }
      }
    }
    field B {
      operation bnop() { encode { inst[15:12] = 4'd0; } }
      operation bmul(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { RF[d] <- RF[a] * RF[b]; }
      }
    }
  }
  section constraints { never A.amul & B.bmul; }
}
)";
  auto m1 = parseAndCheckIsdl(src);
  auto b1 = buildFor(std::move(m1));
  SharingReport withCon = shareResources(b1.model, *b1.machine, {true});
  EXPECT_EQ(withCon.cliquesUsed, 1u);  // the two multipliers merge
  EXPECT_EQ(b1.model.netlist.countNodes(NodeKind::Binary) -
                b1.model.netlist.countNodes(NodeKind::Binary),
            0u);  // sanity

  auto m2 = parseAndCheckIsdl(src);
  auto b2 = buildFor(std::move(m2));
  SharingReport withoutCon = shareResources(b2.model, *b2.machine, {false});
  EXPECT_EQ(withoutCon.cliquesUsed, 0u);  // naive scheme: no merge possible
}

TEST(Sharing, NeverCreatesACombinationalCycleAcrossSharedUnits) {
  // Found by isdl-fuzz (seed 7413975438838165915, shrunk): ma's multiplier
  // reads ma's subtractor, while mb's subtractor reads mb's multiplier. The
  // Mul pair and the AddSub pair are each same-field/different-op (rule R3:
  // compatible) and internally dependency-free — but merging BOTH routes
  // the shared multiplier and the shared adder/subtractor into each other's
  // operand muxes. The exclusive decode lines make that loop false
  // dynamically, yet the netlist must stay structurally acyclic: sharing's
  // closing sweep and GateSim construction throw on a cycle.
  auto b = buildFor(parseAndCheckIsdl(R"(
machine CYC {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    register_file RF width 12 depth 4;
    program_counter PC width 12;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
  }
  section instruction_set {
    field F {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation ma(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { RF[d] <- RF[a] * (12'd100 - RF[b]); }
      }
      operation mb(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { RF[d] <- (RF[a] * RF[b]) - 12'd7; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "F.halt"; }
}
)"));
  EXPECT_NO_THROW(shareResources(b.model, *b.machine));
  EXPECT_NO_THROW(synth::GateSim gs(b.model.netlist));
}

TEST(Sharing, OperatorBuiltByTwoOperationsCarriesNoTag) {
  // p and q read their operands from the same instruction bits, so both
  // lower RF[a] * RF[b] onto one hash-consed multiplier. That node is live
  // whenever either operation is, so it must not enter the clique search as
  // either operation's unit. r builds its own product twice in one
  // statement: one node, still tagged with r.
  auto b = buildFor(parseAndCheckIsdl(R"(
machine TWICE {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    register_file RF width 12 depth 4;
    program_counter PC width 12;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
  }
  section instruction_set {
    field F {
      operation p(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { RF[d] <- RF[a] * RF[b]; }
      }
      operation q(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { RF[d] <- RF[a] * RF[b]; }
      }
      operation r(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd3; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { RF[d] <- (RF[a] * RF[d]) + (RF[a] * RF[d]); }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "F.halt"; }
}
)"));
  const Netlist& nl = b.model.netlist;
  std::vector<NetId> muls;
  for (std::size_t i = 0; i < nl.nodes.size(); ++i)
    if (nl.nodes[i].kind == NodeKind::Binary &&
        nl.nodes[i].binOp == rtl::BinOp::Mul)
      muls.push_back(static_cast<NetId>(i));
  ASSERT_EQ(muls.size(), 2u);  // p/q's product and r's
  const unsigned field = 0, opR = 2;
  std::size_t untagged = 0;
  for (NetId m : muls) {
    auto it = std::ranges::find(b.model.operatorTags, m,
                                &std::pair<NetId, OpTag>::first);
    if (it == b.model.operatorTags.end()) {
      ++untagged;
      continue;
    }
    EXPECT_EQ(it->second.field, field);
    EXPECT_EQ(it->second.op, opR);
  }
  EXPECT_EQ(untagged, 1u);
}

TEST(Sharing, GeneratedMachinesStayInEvaluationOrder) {
  // Rewiring a member's consumers to the shared unit, which is born after
  // them, breaks evaluation order; the sweep that ends sharing restores it.
  // Sharing builds only operand muxes and the units, so a node of another
  // kind that reads a unit was born before it: that seed needed a reorder.
  auto isShared = [](const Node& n) {
    return n.name.rfind("shared_", 0) == 0;
  };
  std::size_t reordered = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto b = buildFor(
        parseAndCheckIsdl(testing::emitIsdl(testing::randomMachineSpec(rng))));
    shareResources(b.model, *b.machine);
    const Netlist& nl = b.model.netlist;
    EXPECT_NO_THROW(nl.checkLevelized());
    bool witness = false;
    for (NetId id = 0; id < static_cast<NetId>(nl.nodes.size()); ++id) {
      const Node& n = nl.nodes[id];
      if (n.kind == NodeKind::Mux || n.kind == NodeKind::Reg || isShared(n))
        continue;
      for (NetId in : nl.ins(id))
        witness = witness || (in != kNoNet && isShared(nl.nodes[in]));
    }
    reordered += witness;
  }
  EXPECT_GT(reordered, 0u);
}

TEST(Sharing, ReportAccounting) {
  auto b = buildFor(archs::loadSpam());
  SharingReport r = shareResources(b.model, *b.machine);
  EXPECT_LE(r.unitsAfter, r.shareableNodes);
  EXPECT_GT(r.maximalCliques, 0u);
}

// Co-simulation after sharing: the rewrite must not change behaviour.
struct ShareCosimCase {
  const char* archName;
  std::unique_ptr<Machine> (*loader)();
  std::vector<archs::Benchmark> (*benches)();
};

// Print the case by name: gtest's default dumps the struct's bytes, whose
// pointers change with address-space randomisation, so ctest names would
// change on every rebuild.
void PrintTo(const ShareCosimCase& c, std::ostream* os) {
  *os << c.archName;
}

class SharingCosimTest : public ::testing::TestWithParam<ShareCosimCase> {};

TEST_P(SharingCosimTest, SharedNetlistStillMatchesXsim) {
  const auto& c = GetParam();
  auto machine = c.loader();
  sim::Xsim xsim(*machine);
  HwModel model = buildDatapath(*machine, xsim.signatures());
  std::size_t nodesBefore = model.netlist.nodes.size();
  SharingReport report = shareResources(model, *machine);
  (void)nodesBefore;
  (void)report;
  sim::Assembler assembler(xsim.signatures());

  for (const auto& bench : c.benches()) {
    SCOPED_TRACE(std::string(c.archName) + "/" + bench.name);
    DiagnosticEngine diags;
    auto prog = assembler.assemble(bench.source, diags);
    ASSERT_TRUE(prog.has_value()) << diags.dump();
    std::string err;
    ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
    ASSERT_EQ(xsim.run(bench.maxCycles).reason, sim::StopReason::Halted);
    xsim.drainPipeline();

    synth::GateSim gs(model.netlist);
    ASSERT_TRUE(gs.loadProgram(*machine, model, *prog, &err)) << err;
    ASSERT_TRUE(gs.runUntil(model.haltedReg, bench.maxCycles));

    for (std::size_t si = 0; si < machine->storages.size(); ++si) {
      const StorageDef& st = machine->storages[si];
      const auto& map = model.storage[si];
      if (map.isMem) {
        for (std::uint64_t e = 0; e < st.depth; ++e)
          ASSERT_EQ(gs.peekMemory(map.mem, e),
                    xsim.state().read(static_cast<unsigned>(si), e))
              << st.name << "[" << e << "]";
      } else {
        EXPECT_EQ(gs.peekNet(map.reg),
                  xsim.state().read(static_cast<unsigned>(si)))
            << st.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, SharingCosimTest,
    ::testing::Values(
        ShareCosimCase{"SPAM", archs::loadSpam, archs::spamBenchmarks},
        ShareCosimCase{"SPAM2", archs::loadSpam2, archs::spam2Benchmarks},
        ShareCosimCase{"SREP", archs::loadSrep, archs::srepBenchmarks},
        ShareCosimCase{"TDSP", archs::loadTdsp, archs::tdspBenchmarks}),
    [](const ::testing::TestParamInfo<ShareCosimCase>& info) {
      return info.param.archName;
    });

}  // namespace
}  // namespace isdl::hw
