// Tests for HGEN's back half: Verilog emission, technology mapping, static
// timing and the end-to-end runHgen facade (the Table-2 generator).

#include "hw/hgen.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/signature.h"
#include "support/strings.h"
#include "testing/machinegen.h"

namespace isdl::hw {
namespace {

struct Built {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<DiagnosticEngine> diags;
  std::unique_ptr<sim::SignatureTable> sigs;
};

Built load(std::unique_ptr<Machine> (*loader)()) {
  Built b;
  b.machine = loader();
  b.diags = std::make_unique<DiagnosticEngine>();
  b.sigs = std::make_unique<sim::SignatureTable>(*b.machine, *b.diags);
  EXPECT_TRUE(b.sigs->valid()) << b.diags->dump();
  return b;
}

TEST(Verilog, SrepEmitsWellFormedModule) {
  auto b = load(archs::loadSrep);
  HgenOutput out = runHgen(*b.machine, *b.sigs);
  const std::string v =
      emitVerilog(out.model.netlist, {b.machine->name + "_core"});
  EXPECT_NE(v.find("module SREP_core("), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("RF_mem"), std::string::npos);
  EXPECT_NE(v.find("output wire [0:0] halted_o"), std::string::npos);
  // Balanced begin/end usage is hard to check lexically; at minimum the
  // module has no unnamed placeholder and no stray kNoNet references.
  EXPECT_EQ(v.find("-1'"), std::string::npos);
  EXPECT_GT(countLines(v), 200u);
}

TEST(Verilog, SpamUsesFpMacroBlocks) {
  auto b = load(archs::loadSpam);
  HgenOutput out = runHgen(*b.machine, *b.sigs);
  const std::string v =
      emitVerilog(out.model.netlist, {b.machine->name + "_core"});
  EXPECT_NE(v.find("isdl_fadd32"), std::string::npos);
  EXPECT_NE(v.find("isdl_fdiv32"), std::string::npos);
  EXPECT_NE(v.find("module isdl_fadd32"), std::string::npos);
}

// runHgen reports verilogLineCount, derived from the netlist; it must stay
// equal to the line count of the text emitVerilog renders.
void expectLineCountMatchesText(const Machine& machine,
                                const sim::SignatureTable& sigs) {
  for (bool share : {true, false}) {
    SCOPED_TRACE(share ? "shared" : "naive");
    HgenOptions opts;
    opts.share = share;
    HgenOutput out = runHgen(machine, sigs, opts);
    EXPECT_EQ(out.stats.verilogLines,
              countLines(emitVerilog(out.model.netlist,
                                     {machine.name + "_core"})));
  }
}

TEST(VerilogLineCount, MatchesEmittedText) {
  for (auto loader : {archs::loadSpam, archs::loadSpam2, archs::loadSrep,
                      archs::loadTdsp}) {
    auto b = load(loader);
    SCOPED_TRACE(b.machine->name);
    expectLineCountMatchesText(*b.machine, *b.sigs);
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(cat("machinegen seed ", seed));
    std::mt19937_64 rng(seed);
    auto machine =
        parseAndCheckIsdl(testing::emitIsdl(testing::randomMachineSpec(rng)));
    DiagnosticEngine diags;
    sim::SignatureTable sigs(*machine, diags);
    ASSERT_TRUE(sigs.valid()) << diags.dump();
    expectLineCountMatchesText(*machine, sigs);
  }
  // Shapes the machines above do not produce: a register whose next value
  // is never wired and a memory without write ports.
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId idle = nl.addReg("idle", 8);
  NetId r = nl.addReg("r", 8);
  nl.setRegInputs(r, a, nl.one());
  int rom = nl.addMemory("rom", 32, 16);
  NetId word = nl.addMemRead(rom, nl.addSlice(r, 3, 0));
  nl.addOutput("idle", idle);
  nl.addOutput("f", nl.addExt(NodeKind::FToI, word, 32));
  EXPECT_EQ(verilogLineCount(nl), countLines(emitVerilog(nl)));
}

TEST(Mapper, WiringNodesAreFree) {
  Netlist nl;
  NetId in = nl.addInput("a", 16);
  NetId sl = nl.addSlice(in, 7, 0);
  NetId cc = nl.addConcat({sl, sl});
  EXPECT_EQ(synth::costOfNode(nl, sl).area, 0.0);
  EXPECT_EQ(synth::costOfNode(nl, cc).delay, 0.0);
}

TEST(Mapper, AdderCostsScaleWithWidth) {
  Netlist nl;
  NetId a8 = nl.addInput("a8", 8);
  NetId b8 = nl.addInput("b8", 8);
  NetId s8 = nl.addBinary(rtl::BinOp::Add, a8, b8);
  NetId a32 = nl.addInput("a32", 32);
  NetId b32 = nl.addInput("b32", 32);
  NetId s32 = nl.addBinary(rtl::BinOp::Add, a32, b32);
  auto c8 = synth::costOfNode(nl, s8);
  auto c32 = synth::costOfNode(nl, s32);
  EXPECT_EQ(c32.area, 4 * c8.area);
  EXPECT_GT(c32.delay, c8.delay);
  // Multipliers dwarf adders.
  NetId m32 = nl.addBinary(rtl::BinOp::Mul, a32, b32);
  EXPECT_GT(synth::costOfNode(nl, m32).area, 10 * c32.area);
}

TEST(Mapper, TimingFindsCriticalPath) {
  // reg -> add -> mul -> reg is longer than reg -> add -> reg.
  Netlist nl;
  NetId r1 = nl.addReg("r1", 16);
  NetId r2 = nl.addReg("r2", 16);
  NetId sum = nl.addBinary(rtl::BinOp::Add, r1, r2);
  NetId prod = nl.addBinary(rtl::BinOp::Mul, sum, r2);
  nl.setRegInputs(r1, sum);
  nl.setRegInputs(r2, prod);
  auto t = synth::analyzeTiming(nl);
  const auto& lib = synth::defaultLibrary();
  double expected = lib.dffClkToQ + synth::costOfNode(nl, sum).delay +
                    synth::costOfNode(nl, prod).delay + lib.dffSetup;
  EXPECT_DOUBLE_EQ(t.criticalPathNs, expected);
  // The reported path walks source -> sink.
  ASSERT_GE(t.criticalPath.size(), 2u);
  EXPECT_EQ(t.criticalPath.back(), prod);
}

TEST(Hgen, Table2ShapeSpamVsSpam2) {
  auto bSpam = load(archs::loadSpam);
  auto bSpam2 = load(archs::loadSpam2);
  HgenOutput spam = runHgen(*bSpam.machine, *bSpam.sigs);
  HgenOutput spam2 = runHgen(*bSpam2.machine, *bSpam2.sigs);

  // The paper's qualitative Table 2: SPAM is the bigger, slower-clocked
  // machine; SPAM2 is the reduced one.
  EXPECT_GT(spam.stats.dieSizeGridCells, spam2.stats.dieSizeGridCells);
  EXPECT_GT(spam.stats.verilogLines, spam2.stats.verilogLines);
  EXPECT_GE(spam.stats.cycleNs, spam2.stats.cycleNs);
  EXPECT_GT(spam.stats.cycleNs, 0.0);
  EXPECT_GT(spam.stats.synthesisSeconds, 0.0);
}

TEST(Hgen, DatapathHoldsNoStructuralDuplicates) {
  // Hash-consing at birth: no two combinational nodes of buildDatapath's
  // netlist share kind, width, inputs and payload, and the builder's mux
  // fold sees merged nets, so no mux selects between a net and itself.
  for (auto loader : {archs::loadSpam, archs::loadSpam2, archs::loadSrep,
                      archs::loadTdsp}) {
    auto b = load(loader);
    const Netlist nl = buildDatapath(*b.machine, *b.sigs).netlist;
    SCOPED_TRACE(b.machine->name);
    std::set<std::tuple<NodeKind, unsigned, std::vector<NetId>, int, int,
                        unsigned, unsigned, int, std::string>>
        shapes;
    std::size_t duplicates = 0, sameArmMuxes = 0;
    for (const Node& n : nl.nodes) {
      if (n.kind == NodeKind::Input || n.kind == NodeKind::Reg) continue;
      if (n.kind == NodeKind::Mux && n.ins[1] == n.ins[2]) ++sameArmMuxes;
      bool fresh =
          shapes
              .emplace(n.kind, n.width, n.ins, static_cast<int>(n.unOp),
                       static_cast<int>(n.binOp), n.hi, n.lo, n.memId,
                       n.kind == NodeKind::Const ? n.constValue.toHexString()
                                                 : std::string())
              .second;
      if (!fresh) ++duplicates;
    }
    EXPECT_EQ(duplicates, 0u);
    EXPECT_EQ(sameArmMuxes, 0u);
  }
}

TEST(Hgen, SharingShrinksDieSize) {
  auto b1 = load(archs::loadSpam);
  HgenOptions shared;
  HgenOptions naive;
  naive.share = false;
  HgenOutput with = runHgen(*b1.machine, *b1.sigs, shared);
  auto b2 = load(archs::loadSpam);
  HgenOutput without = runHgen(*b2.machine, *b2.sigs, naive);
  EXPECT_LT(with.stats.area.logicArea, without.stats.area.logicArea);
  EXPECT_GT(with.stats.sharing.cliquesUsed, 0u);
}

TEST(Hgen, PowerEstimateIsMonotonicInActivity) {
  double p1 = synth::estimatePowerMw(1000, 10.0);
  double p2 = synth::estimatePowerMw(2000, 10.0);
  double p3 = synth::estimatePowerMw(1000, 5.0);  // faster clock
  EXPECT_GT(p2, p1);
  EXPECT_GT(p3, p1);
  EXPECT_EQ(synth::estimatePowerMw(1000, 0.0), 0.0);
}

}  // namespace
}  // namespace isdl::hw
