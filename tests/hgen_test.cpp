// Tests for HGEN's back half: Verilog emission, technology mapping, static
// timing and the end-to-end runHgen facade (the Table-2 generator).

#include "hw/hgen.h"

#include <gtest/gtest.h>

#include <charconv>
#include <random>
#include <set>
#include <tuple>

#include "archs/archs.h"
#include "explore/spamfamily.h"
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
    for (NetId id = 0; id < static_cast<NetId>(nl.nodes.size()); ++id) {
      const Node& n = nl.nodes[id];
      const std::span<const NetId> ins = nl.ins(id);
      if (n.kind == NodeKind::Input || n.kind == NodeKind::Reg) continue;
      if (n.kind == NodeKind::Mux && ins[1] == ins[2]) ++sameArmMuxes;
      bool fresh =
          shapes
              .emplace(n.kind, n.width,
                       std::vector<NetId>(ins.begin(), ins.end()),
                       static_cast<int>(n.unOp),
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

// ---- HGEN's output pinned byte for byte -----------------------------------
// The Verilog text (as an FNV-1a hash) and the sharing counts of every
// bundled machine and SPAM-family variant, shared, naive and without the
// constraint refinement. A change to datapath lowering, sharing or emission
// that alters any of them must update these pins on purpose.

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[16];
  return std::string(buf, std::to_chars(buf, buf + 16, v, 16).ptr);
}

struct HgenPin {
  std::string row;     ///< "<machine> <mode>", the pin's name
  std::uint64_t verilog;
  std::size_t shareable, unitsAfter, cliquesUsed, maximalCliques, muxesAdded;
};

std::string pinText(const HgenPin& p) {
  return cat("{\"", p.row, "\", 0x", hex(p.verilog), "ull, ", p.shareable,
             ", ", p.unitsAfter, ", ", p.cliquesUsed, ", ", p.maximalCliques,
             ", ", p.muxesAdded, "}");
}

HgenPin pinOf(const Machine& machine, const sim::SignatureTable& sigs,
              const std::string& row, const HgenOptions& opts) {
  HgenOutput out = runHgen(machine, sigs, opts);
  const SharingReport& s = out.stats.sharing;
  return {row,
          fnv1a(emitVerilog(out.model.netlist, {machine.name + "_core"})),
          s.shareableNodes,
          s.unitsAfter,
          s.cliquesUsed,
          s.maximalCliques,
          s.muxesAdded};
}

TEST(HgenPins, BundledMachinesAndSpamFamily) {
  const std::vector<HgenPin> kPins = {
      {"SPAM shared", 0xa2c127521888ddb3ull, 30, 25, 4, 19, 13},
      {"SPAM naive", 0x437e8f94610287ccull, 0, 0, 0, 0, 0},
      {"SPAM unconstrained", 0x725413ebb29f4724ull, 30, 27, 3, 20, 9},
      {"SPAM2 shared", 0xcec011593651be4ull, 5, 3, 2, 2, 6},
      {"SPAM2 naive", 0xfbdedb06ea3a671aull, 0, 0, 0, 0, 0},
      {"SPAM2 unconstrained", 0xcec011593651be4ull, 5, 3, 2, 2, 6},
      {"SREP shared", 0xc057ee236222ef7ull, 7, 5, 1, 1, 6},
      {"SREP naive", 0x90bfb890f6c58f73ull, 0, 0, 0, 0, 0},
      {"SREP unconstrained", 0xc057ee236222ef7ull, 7, 5, 1, 1, 6},
      {"TDSP shared", 0x276f7904483c5b6full, 4, 3, 1, 1, 3},
      {"TDSP naive", 0x7ce081c50ebb53acull, 0, 0, 0, 0, 0},
      {"TDSP unconstrained", 0x276f7904483c5b6full, 4, 3, 1, 1, 3},
      {"alu1_mov0 shared", 0x7d70209cbd3f0167ull, 3, 2, 1, 1, 3},
      {"alu1_mov0 naive", 0x766474d6582dc915ull, 0, 0, 0, 0, 0},
      {"alu1_mov0 unconstrained", 0x7d70209cbd3f0167ull, 3, 2, 1, 1, 3},
      {"alu1_mov1 shared", 0x214f07773a032c3cull, 3, 2, 1, 1, 3},
      {"alu1_mov1 naive", 0x3336dd337b5c3f1ull, 0, 0, 0, 0, 0},
      {"alu1_mov1 unconstrained", 0x214f07773a032c3cull, 3, 2, 1, 1, 3},
      {"alu1_mov2 shared", 0x4a5216c30dd0610dull, 3, 2, 1, 1, 3},
      {"alu1_mov2 naive", 0xb079821e6b087d93ull, 0, 0, 0, 0, 0},
      {"alu1_mov2 unconstrained", 0x4a5216c30dd0610dull, 3, 2, 1, 1, 3},
      {"alu1_mov3 shared", 0x683114ad623fd8a9ull, 3, 2, 1, 1, 3},
      {"alu1_mov3 naive", 0x77195e0b588b09e5ull, 0, 0, 0, 0, 0},
      {"alu1_mov3 unconstrained", 0x683114ad623fd8a9ull, 3, 2, 1, 1, 3},
      {"alu2_mov0 shared", 0x759ba6d8de27e91bull, 5, 3, 2, 2, 6},
      {"alu2_mov0 naive", 0x3a23dc0abb32f247ull, 0, 0, 0, 0, 0},
      {"alu2_mov0 unconstrained", 0x759ba6d8de27e91bull, 5, 3, 2, 2, 6},
      {"alu2_mov1 shared", 0xd5693d14ba5583ffull, 5, 3, 2, 2, 6},
      {"alu2_mov1 naive", 0x99891076406651b4ull, 0, 0, 0, 0, 0},
      {"alu2_mov1 unconstrained", 0xd5693d14ba5583ffull, 5, 3, 2, 2, 6},
      {"alu2_mov2 shared", 0xece55e1abfd457beull, 5, 3, 2, 2, 6},
      {"alu2_mov2 naive", 0x167b34913926a715ull, 0, 0, 0, 0, 0},
      {"alu2_mov2 unconstrained", 0xece55e1abfd457beull, 5, 3, 2, 2, 6},
      {"alu2_mov3 shared", 0xd763e81d66a9ef79ull, 5, 3, 2, 2, 6},
      {"alu2_mov3 naive", 0xd179ffcdd04b517aull, 0, 0, 0, 0, 0},
      {"alu2_mov3 unconstrained", 0xd763e81d66a9ef79ull, 5, 3, 2, 2, 6},
      {"alu3_mov0 shared", 0xd1902ef2f0384be0ull, 7, 4, 3, 3, 9},
      {"alu3_mov0 naive", 0x74f478a800f3dc53ull, 0, 0, 0, 0, 0},
      {"alu3_mov0 unconstrained", 0xd1902ef2f0384be0ull, 7, 4, 3, 3, 9},
      {"alu3_mov1 shared", 0x7cebf6a09dcbb2e1ull, 7, 4, 3, 3, 9},
      {"alu3_mov1 naive", 0xc65a30f2ddba4e91ull, 0, 0, 0, 0, 0},
      {"alu3_mov1 unconstrained", 0x7cebf6a09dcbb2e1ull, 7, 4, 3, 3, 9},
      {"alu3_mov2 shared", 0x78bcf82b73a3b41aull, 7, 4, 3, 3, 9},
      {"alu3_mov2 naive", 0xd7d1be5a9e1b5cb2ull, 0, 0, 0, 0, 0},
      {"alu3_mov2 unconstrained", 0x78bcf82b73a3b41aull, 7, 4, 3, 3, 9},
      {"alu3_mov3 shared", 0x615dc17feab97d2ull, 7, 4, 3, 3, 9},
      {"alu3_mov3 naive", 0x1b9a557b4968931ull, 0, 0, 0, 0, 0},
      {"alu3_mov3 unconstrained", 0x615dc17feab97d2ull, 7, 4, 3, 3, 9},
      {"alu4_mov0 shared", 0xf39f131e2c840e38ull, 9, 5, 4, 4, 12},
      {"alu4_mov0 naive", 0x96d4191d569ae083ull, 0, 0, 0, 0, 0},
      {"alu4_mov0 unconstrained", 0xf39f131e2c840e38ull, 9, 5, 4, 4, 12},
      {"alu4_mov1 shared", 0xdc3f6eb7048b80d8ull, 9, 5, 4, 4, 12},
      {"alu4_mov1 naive", 0x6f09f45d0f15f93bull, 0, 0, 0, 0, 0},
      {"alu4_mov1 unconstrained", 0xdc3f6eb7048b80d8ull, 9, 5, 4, 4, 12},
      {"alu4_mov2 shared", 0x42f56c1309946943ull, 9, 5, 4, 4, 12},
      {"alu4_mov2 naive", 0xa81d71a34d5dd974ull, 0, 0, 0, 0, 0},
      {"alu4_mov2 unconstrained", 0x42f56c1309946943ull, 9, 5, 4, 4, 12},
      {"alu4_mov3 shared", 0xbe849be00e5f9f12ull, 9, 5, 4, 4, 12},
      {"alu4_mov3 naive", 0x4db22a4e8af9208ull, 0, 0, 0, 0, 0},
      {"alu4_mov3 unconstrained", 0xbe849be00e5f9f12ull, 9, 5, 4, 4, 12},
  };
  const std::pair<const char*, HgenOptions> modes[] = {
      {"shared", {}},
      {"naive", {false, true}},
      {"unconstrained", {true, false}},
  };
  std::vector<HgenPin> actual;
  auto pinMachine = [&](const Machine& machine, const std::string& name) {
    DiagnosticEngine diags;
    sim::SignatureTable sigs(machine, diags);
    ASSERT_TRUE(sigs.valid()) << diags.dump();
    for (const auto& [mode, opts] : modes)
      actual.push_back(pinOf(machine, sigs, cat(name, " ", mode), opts));
  };
  for (auto loader : {archs::loadSpam, archs::loadSpam2, archs::loadSrep,
                      archs::loadTdsp}) {
    auto machine = loader();
    pinMachine(*machine, machine->name);
  }
  for (unsigned alu = 1; alu <= 4; ++alu)
    for (unsigned mov = 0; mov <= 3; ++mov) {
      explore::SpamVariantParams params{alu, mov};
      pinMachine(
          *parseAndCheckIsdl(explore::makeSpamVariant(params).isdlSource),
          params.name());
    }
  std::string actualRows;
  for (const HgenPin& p : actual) actualRows += "      " + pinText(p) + ",\n";
  ASSERT_EQ(actual.size(), kPins.size()) << actualRows;
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_EQ(pinText(actual[i]), pinText(kPins[i]));
}

TEST(HgenPins, MachinegenSeedsShared) {
  // One hash over the Verilog text and sharing counts of seeds 1-300.
  std::uint64_t h = fnv1a("");
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    auto machine =
        parseAndCheckIsdl(testing::emitIsdl(testing::randomMachineSpec(rng)));
    DiagnosticEngine diags;
    sim::SignatureTable sigs(*machine, diags);
    ASSERT_TRUE(sigs.valid()) << diags.dump();
    h = fnv1a(pinText(pinOf(*machine, sigs, cat("seed ", seed), {})), h);
  }
  EXPECT_EQ(hex(h), "2ed36f9d0a54b41f");
}

TEST(HgenPins, MachinegenSeedsNaive) {
  // The same seeds without sharing: the naive netlist is what the
  // datapath builder and its sweep leave, which reorders or removes nodes
  // on most of these machines.
  std::uint64_t h = fnv1a("");
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    auto machine =
        parseAndCheckIsdl(testing::emitIsdl(testing::randomMachineSpec(rng)));
    DiagnosticEngine diags;
    sim::SignatureTable sigs(*machine, diags);
    ASSERT_TRUE(sigs.valid()) << diags.dump();
    h = fnv1a(pinText(pinOf(*machine, sigs, cat("seed ", seed),
                            {false, true})),
              h);
  }
  EXPECT_EQ(hex(h), "e16b6c06722b0d95");
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
