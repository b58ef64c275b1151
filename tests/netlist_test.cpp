// Unit tests for the word-level netlist IR: builders, the evaluation-order
// invariant and cycle detection, hash-consing at insertion, dead-node
// sweeping, and the gate simulator's sequential semantics on hand-built
// circuits.

#include "hw/netlist.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "archs/archs.h"
#include "hw/datapath.h"
#include "hw/sharing.h"
#include "sim/signature.h"
#include "synth/gatesim.h"
#include "synth/mapper.h"

namespace isdl::hw {
namespace {

using rtl::BinOp;
using rtl::UnOp;

TEST(Netlist, BuilderWidths) {
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId b = nl.addInput("b", 8);
  EXPECT_EQ(nl.widthOf(nl.addBinary(BinOp::Add, a, b)), 8u);
  EXPECT_EQ(nl.widthOf(nl.addBinary(BinOp::ULt, a, b)), 1u);
  EXPECT_EQ(nl.widthOf(nl.addUnary(UnOp::RedOr, a)), 1u);
  EXPECT_EQ(nl.widthOf(nl.addUnary(UnOp::BitNot, a)), 8u);
  EXPECT_EQ(nl.widthOf(nl.addSlice(a, 3, 1)), 3u);
  EXPECT_EQ(nl.widthOf(nl.addConcat({a, b})), 16u);
  EXPECT_EQ(nl.widthOf(nl.addExt(NodeKind::ZExt, a, 20)), 20u);
}

TEST(Netlist, ControlHelpersFoldConstants) {
  Netlist nl;
  NetId x = nl.addInput("x", 1);
  EXPECT_EQ(nl.andNet(nl.one(), x), x);
  EXPECT_EQ(nl.andNet(x, nl.zero()), nl.zero());
  EXPECT_EQ(nl.orNet(nl.zero(), x), x);
  EXPECT_EQ(nl.orNet(x, nl.one()), nl.one());
  EXPECT_EQ(nl.notNet(nl.one()), nl.zero());
  // Mux with equal branches folds away.
  EXPECT_EQ(nl.addMux(x, x, x), x);
}

TEST(Netlist, WithSliceComposesCorrectly) {
  Netlist nl;
  NetId base = nl.addConst(BitVector(16, 0x0000));
  NetId part = nl.addConst(BitVector(8, 0xAB));
  NetId out = nl.withSlice(base, 11, 4, part);
  nl.addOutput("o", out);
  synth::GateSim gs(nl);
  gs.step();
  EXPECT_EQ(gs.peekNet(out).toUint64(), 0x0AB0u);
  EXPECT_EQ(gs.peekNet(out).width(), 16u);
}

TEST(Netlist, SweepDeadRestoresEvaluationOrder) {
  // Rewire a node to read a net born after it, as resource sharing does
  // when it redirects consumers to a new shared unit.
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId b = nl.addInput("b", 8);
  NetId inv = nl.addUnary(UnOp::BitNot, a);
  NetId sum = nl.addBinary(BinOp::Add, a, b);
  nl.setInput(inv, 0, sum);  // inv = ~(a + b)
  nl.addOutput("o", inv);
  EXPECT_THROW(nl.checkLevelized(), IsdlError);

  std::vector<NetId> remap = nl.sweepDead();
  EXPECT_EQ(remap[a], a);
  EXPECT_EQ(remap[b], b);
  EXPECT_LT(remap[sum], remap[inv]);
  EXPECT_NO_THROW(nl.checkLevelized());

  synth::GateSim gs(nl);
  gs.setInput(remap[a], BitVector(8, 5));
  gs.setInput(remap[b], BitVector(8, 7));
  gs.step();
  EXPECT_EQ(gs.peekNet(remap[inv]).toUint64(), 0xF3u);  // ~12
}

TEST(Netlist, CombinationalCycleIsRejected) {
  Netlist nl;
  NetId a = nl.addInput("a", 4);
  NetId add = nl.addBinary(BinOp::Add, a, a);
  // Forge a cycle: add reads itself.
  nl.setInput(add, 1, add);
  nl.addOutput("o", add);
  EXPECT_THROW(nl.checkLevelized(), IsdlError);
  EXPECT_THROW(synth::GateSim{nl}, IsdlError);
  EXPECT_THROW(synth::analyzeTiming(nl), IsdlError);
  EXPECT_THROW(nl.sweepDead(), IsdlError);
}

TEST(Netlist, RegistersBreakCycles) {
  // reg -> +1 -> reg is fine (the canonical counter).
  Netlist nl;
  NetId reg = nl.addReg("ctr", 8);
  NetId one = nl.addConst(BitVector(8, 1));
  NetId next = nl.addBinary(BinOp::Add, reg, one);
  nl.setRegInputs(reg, next);
  EXPECT_NO_THROW(nl.checkLevelized());

  synth::GateSim gs(nl);
  gs.step();
  gs.step();
  gs.step();
  EXPECT_EQ(gs.peekNet(reg).toUint64(), 3u);
}

TEST(Netlist, RegisterEnableGates) {
  Netlist nl;
  NetId en = nl.addInput("en", 1);
  NetId reg = nl.addReg("r", 8);
  NetId one = nl.addConst(BitVector(8, 1));
  NetId next = nl.addBinary(BinOp::Add, reg, one);
  nl.setRegInputs(reg, next, en);
  synth::GateSim gs(nl);
  gs.setInput(en, BitVector(1, 0));
  gs.step();
  EXPECT_EQ(gs.peekNet(reg).toUint64(), 0u);
  gs.setInput(en, BitVector(1, 1));
  gs.step();
  gs.step();
  EXPECT_EQ(gs.peekNet(reg).toUint64(), 2u);
}

TEST(Netlist, MemoryWritePortPriorityIsPortOrder) {
  Netlist nl;
  int mem = nl.addMemory("m", 8, 16);
  NetId addr = nl.addConst(BitVector(4, 5));
  NetId v1 = nl.addConst(BitVector(8, 11));
  NetId v2 = nl.addConst(BitVector(8, 22));
  nl.addMemWrite(mem, nl.one(), addr, v1);
  nl.addMemWrite(mem, nl.one(), addr, v2);  // later port wins
  synth::GateSim gs(nl);
  gs.step();
  EXPECT_EQ(gs.peekMemory(mem, 5).toUint64(), 22u);
}

TEST(Netlist, GateSimTwoPhaseRegisterSwap) {
  // r1 <- r2; r2 <- r1 every clock: values swap, never merge.
  Netlist nl;
  NetId r1 = nl.addReg("r1", 8);
  NetId r2 = nl.addReg("r2", 8);
  nl.setRegInputs(r1, r2);
  nl.setRegInputs(r2, r1);
  synth::GateSim gs(nl);
  gs.pokeReg(r1, BitVector(8, 1));
  gs.pokeReg(r2, BitVector(8, 2));
  gs.step();
  EXPECT_EQ(gs.peekNet(r1).toUint64(), 2u);
  EXPECT_EQ(gs.peekNet(r2).toUint64(), 1u);
  gs.step();
  EXPECT_EQ(gs.peekNet(r1).toUint64(), 1u);
  EXPECT_EQ(gs.peekNet(r2).toUint64(), 2u);
}

TEST(Netlist, DuplicateNodeReturnsTheSameNet) {
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId b = nl.addInput("b", 8);
  NetId sum = nl.addBinary(BinOp::Add, a, b);
  NetId cat = nl.addConcat({sum, a});
  const std::size_t size = nl.nodes.size();
  EXPECT_EQ(nl.addBinary(BinOp::Add, a, b), sum);
  EXPECT_EQ(nl.addConcat({sum, a}), cat);
  EXPECT_EQ(nl.one(), nl.addConst(BitVector(1, 1)));
  EXPECT_EQ(nl.nodes.size(), size + 1);  // only the constant is new
  // Operand order and operator are part of the shape.
  EXPECT_NE(nl.addBinary(BinOp::Add, b, a), sum);
  EXPECT_NE(nl.addBinary(BinOp::Sub, a, b), sum);
  // A merged node with no name takes the first name offered.
  nl.addBinary(BinOp::Add, a, b, "s");
  nl.addBinary(BinOp::Add, a, b, "t");
  EXPECT_EQ(nl.nodes[sum].name, "s");
}

TEST(Netlist, ConstantsAndPayloadsStayDistinct) {
  Netlist nl;
  NetId c1 = nl.addConst(BitVector(8, 1));
  EXPECT_NE(nl.addConst(BitVector(8, 2)), c1);
  EXPECT_NE(nl.addConst(BitVector(16, 1)), c1);
  EXPECT_EQ(nl.addConst(BitVector(8, 1)), c1);
  NetId a = nl.addInput("a", 8);
  NetId s1 = nl.addSlice(a, 3, 0);
  EXPECT_NE(nl.addSlice(a, 4, 1), s1);  // same width, different bounds
  EXPECT_EQ(nl.addSlice(a, 3, 0), s1);
  EXPECT_NE(nl.addUnary(UnOp::Neg, a), nl.addUnary(UnOp::BitNot, a));
  int m0 = nl.addMemory("m0", 8, 4);
  int m1 = nl.addMemory("m1", 8, 4);
  NetId addr = nl.addSlice(a, 1, 0);
  EXPECT_NE(nl.addMemRead(m0, addr), nl.addMemRead(m1, addr));
  EXPECT_EQ(nl.addMemRead(m0, addr), nl.addMemRead(m0, addr));
}

TEST(Netlist, InputsAndRegistersNeverMerge) {
  Netlist nl;
  EXPECT_NE(nl.addInput("x", 8), nl.addInput("x", 8));
  NetId r1 = nl.addReg("r", 8);
  NetId r2 = nl.addReg("r", 8);
  EXPECT_NE(r1, r2);
  NetId next = nl.addConst(BitVector(8, 1));
  nl.setRegInputs(r1, next);
  nl.setRegInputs(r2, next);
  nl.sweepDead();
  EXPECT_EQ(nl.countNodes(NodeKind::Input), 2u);
  EXPECT_EQ(nl.countNodes(NodeKind::Reg), 2u);
}

TEST(Netlist, RewiredNodeIsNotReturnedForItsOldShape) {
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId b = nl.addInput("b", 8);
  NetId sum = nl.addBinary(BinOp::Add, a, b);
  nl.setInput(sum, 1, a);  // rewired in place: now a + a
  NetId again = nl.addBinary(BinOp::Add, a, b);
  EXPECT_NE(again, sum);
  EXPECT_TRUE(std::ranges::equal(nl.ins(again), std::vector<NetId>{a, b}));
  // `sum` is indexed under its birth shape, so this adds a second a + a.
  NetId twice = nl.addBinary(BinOp::Add, a, a);
  // Sweeping re-indexes live shapes; the first-born answers for a + a.
  for (NetId n : {sum, again, twice}) nl.addOutput("o", n);
  std::vector<NetId> remap = nl.sweepDead();
  EXPECT_EQ(nl.addBinary(BinOp::Add, remap[a], remap[a]), remap[sum]);
  EXPECT_EQ(nl.addBinary(BinOp::Add, remap[a], remap[b]), remap[again]);
}

TEST(Netlist, ProbeOfARewiredShapeAnswersWithTheNodeIndexedUnderIt) {
  // Rewiring b -> a gives two nodes each of the shapes ~a and -a. A probe
  // finds the node indexed under the probed shape's hash, older or newer;
  // the node rewired into the shape was indexed under its birth shape.
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId b = nl.addInput("b", 8);
  NetId notB = nl.addUnary(UnOp::BitNot, b);  // becomes ~a
  NetId notA = nl.addUnary(UnOp::BitNot, a);
  NetId negA = nl.addUnary(UnOp::Neg, a);
  NetId negB = nl.addUnary(UnOp::Neg, b);  // becomes -a
  std::vector<NetId> to(nl.nodes.size());
  for (std::size_t i = 0; i < to.size(); ++i) to[i] = static_cast<NetId>(i);
  to[b] = a;
  nl.rewire(to);
  const std::size_t size = nl.nodes.size();
  EXPECT_EQ(nl.addUnary(UnOp::BitNot, a), notA);  // the newer of the two
  EXPECT_EQ(nl.addUnary(UnOp::Neg, a), negA);     // the older of the two
  EXPECT_EQ(nl.nodes.size(), size);
  // Neither rewired node answers for the shape it was born with.
  NetId freshNotB = nl.addUnary(UnOp::BitNot, b);
  NetId freshNegB = nl.addUnary(UnOp::Neg, b);
  EXPECT_EQ(nl.nodes.size(), size + 2);
  EXPECT_NE(freshNotB, notB);
  EXPECT_NE(freshNegB, negB);

  // After a sweep the first-born of each shape answers.
  for (NetId n : {notB, notA, negA, negB, freshNotB, freshNegB})
    nl.addOutput("o", n);
  std::vector<NetId> remap = nl.sweepDead();
  const std::size_t swept = nl.nodes.size();
  EXPECT_EQ(nl.addUnary(UnOp::BitNot, remap[a]), remap[notB]);
  EXPECT_EQ(nl.addUnary(UnOp::Neg, remap[a]), remap[negA]);
  EXPECT_EQ(nl.addUnary(UnOp::BitNot, remap[b]), remap[freshNotB]);
  EXPECT_EQ(nl.addUnary(UnOp::Neg, remap[b]), remap[freshNegB]);
  EXPECT_EQ(nl.nodes.size(), swept);
}

TEST(Netlist, SweepDeadKeepsEveryIdOfAnOrderedNetlist) {
  // Every node is live and reads only nets born before it (a register's
  // next value may come later): the sweep keeps every id, node and name,
  // and every shape still probes to its node.
  Netlist nl;
  NetId reg = nl.addReg("acc", 8);
  NetId in = nl.addInput("in", 8);
  int mem = nl.addMemory("m", 8, 16);
  NetId addr = nl.addSlice(in, 3, 0, "addr");
  NetId word = nl.addMemRead(mem, addr);
  NetId k = nl.addConst(BitVector(8, 5));
  NetId sum = nl.addBinary(BinOp::Add, reg, word, "sum");
  NetId lt = nl.addBinary(BinOp::ULt, sum, k);
  NetId next = nl.addMux(lt, sum, k);
  NetId wide = nl.addConcat({next, in});
  NetId top = nl.addExt(NodeKind::Trunc, wide, 8);
  nl.setRegInputs(reg, next, lt);
  nl.addMemWrite(mem, lt, addr, top);
  nl.addOutput("acc", reg);
  const Netlist before = nl;

  std::vector<NetId> remap = nl.sweepDead();
  ASSERT_EQ(remap.size(), before.nodes.size());
  for (std::size_t i = 0; i < remap.size(); ++i)
    EXPECT_EQ(remap[i], static_cast<NetId>(i));
  ASSERT_EQ(nl.nodes.size(), before.nodes.size());
  for (NetId i = 0; i < static_cast<NetId>(before.nodes.size()); ++i) {
    EXPECT_EQ(nl.nodes[i].kind, before.nodes[i].kind);
    EXPECT_EQ(nl.nodes[i].name, before.nodes[i].name);
    EXPECT_TRUE(std::ranges::equal(nl.ins(i), before.ins(i)));
  }
  const MemWritePort& port = nl.memories[mem].writePorts.at(0);
  EXPECT_EQ(port.enable, lt);
  EXPECT_EQ(port.addr, addr);
  EXPECT_EQ(port.data, top);
  EXPECT_EQ(nl.outputs.at(0).net, reg);
  EXPECT_EQ(nl.addSlice(in, 3, 0), addr);
  EXPECT_EQ(nl.addMemRead(mem, addr), word);
  EXPECT_EQ(nl.addConst(BitVector(8, 5)), k);
  EXPECT_EQ(nl.addBinary(BinOp::Add, reg, word), sum);
  EXPECT_EQ(nl.addBinary(BinOp::ULt, sum, k), lt);
  EXPECT_EQ(nl.addMux(lt, sum, k), next);
  EXPECT_EQ(nl.addConcat({next, in}), wide);
  EXPECT_EQ(nl.addExt(NodeKind::Trunc, wide, 8), top);
  EXPECT_EQ(nl.nodes.size(), before.nodes.size());
}

TEST(Netlist, InputChangedBeforeASweepWithNothingToDoLetsTheFirstBornAnswer) {
  // Rewiring ~b's input to a keeps the netlist in order with nothing dead,
  // so the sweep moves nothing; the index must still forget the birth shape
  // ~b and let the first-born of ~a answer.
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId b = nl.addInput("b", 8);
  NetId notB = nl.addUnary(UnOp::BitNot, b);  // becomes ~a
  NetId notA = nl.addUnary(UnOp::BitNot, a);
  nl.setInput(notB, 0, a);
  nl.addOutput("x", notB);
  nl.addOutput("y", notA);
  EXPECT_EQ(nl.addUnary(UnOp::BitNot, a), notA);  // indexed under ~a

  std::vector<NetId> remap = nl.sweepDead();
  for (std::size_t i = 0; i < remap.size(); ++i)
    ASSERT_EQ(remap[i], static_cast<NetId>(i));
  const std::size_t size = nl.nodes.size();
  EXPECT_EQ(nl.addUnary(UnOp::BitNot, a), notB);
  EXPECT_EQ(nl.nodes.size(), size);
  EXPECT_EQ(nl.addUnary(UnOp::BitNot, b), static_cast<NetId>(size));
}

TEST(Netlist, WideConcatRoundTrips) {
  // Five parts, more than any other kind of node reads: they come back in
  // order, probe to the same node, evaluate, and survive a sweep that moves
  // the node.
  Netlist nl;
  NetId in = nl.addInput("in", 8);
  NetId dead = nl.addUnary(UnOp::Neg, in);
  const std::vector<NetId> parts = {
      nl.addSlice(in, 7, 6), nl.addConst(BitVector(3, 5)), in,
      nl.addSlice(in, 0, 0), nl.addConst(BitVector(4, 9))};
  NetId wide = nl.addConcat(parts, "wide");
  EXPECT_EQ(nl.widthOf(wide), 2u + 3u + 8u + 1u + 4u);
  EXPECT_TRUE(std::ranges::equal(nl.ins(wide), parts));
  EXPECT_EQ(nl.addConcat(parts), wide);
  std::vector<NetId> reversed(parts.rbegin(), parts.rend());
  EXPECT_NE(nl.addConcat(reversed), wide);
  nl.addOutput("o", wide);

  std::vector<NetId> remap = nl.sweepDead();
  EXPECT_EQ(remap[dead], kNoNet);
  const NetId moved = remap[wide];
  ASSERT_NE(moved, wide);
  std::vector<NetId> movedParts;
  for (NetId p : parts) movedParts.push_back(remap[p]);
  EXPECT_TRUE(std::ranges::equal(nl.ins(moved), movedParts));
  EXPECT_EQ(nl.nodes[moved].name, "wide");
  EXPECT_EQ(nl.addConcat(movedParts), moved);

  synth::GateSim gs(nl);
  gs.setInput(remap[in], BitVector(8, 0xA5));
  gs.step();
  // {in[7:6], 3'd5, in, in[0], 4'd9} = {10, 101, 10100101, 1, 1001}
  EXPECT_EQ(gs.peekNet(moved).toUint64(), 0b10'101'10100101'1'1001u);
}

TEST(Netlist, RewiringACopyLeavesTheOriginal) {
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId b = nl.addInput("b", 8);
  NetId sum = nl.addBinary(BinOp::Add, a, b);
  NetId cat = nl.addConcat({sum, a, b, sum});
  nl.addOutput("o", cat);

  Netlist copy = nl;
  std::vector<NetId> to(copy.nodes.size());
  for (std::size_t i = 0; i < to.size(); ++i) to[i] = static_cast<NetId>(i);
  to[b] = a;
  copy.rewire(to);
  copy.setInput(sum, 0, b);
  copy.sweepDead();

  EXPECT_TRUE(std::ranges::equal(nl.ins(sum), std::vector<NetId>{a, b}));
  EXPECT_TRUE(
      std::ranges::equal(nl.ins(cat), std::vector<NetId>{sum, a, b, sum}));
  EXPECT_EQ(nl.outputs.at(0).net, cat);
  EXPECT_EQ(nl.addBinary(BinOp::Add, a, b), sum);
  EXPECT_TRUE(std::ranges::equal(copy.ins(sum), std::vector<NetId>{b, a}));
  EXPECT_TRUE(
      std::ranges::equal(copy.ins(cat), std::vector<NetId>{sum, a, a, sum}));
}

TEST(Netlist, EveryShapeStillProbesToItsNodeAsTheIndexGrows) {
  // Thousands of distinct shapes, many of one kind and width: the index
  // keeps answering each with the node first built for it.
  Netlist nl;
  NetId a = nl.addInput("a", 16);
  std::vector<NetId> ids;
  for (unsigned v = 0; v < 3000; ++v)
    ids.push_back(nl.addConst(BitVector(16, v)));
  for (unsigned hi = 0; hi < 16; ++hi)
    for (unsigned lo = 0; lo <= hi; ++lo) ids.push_back(nl.addSlice(a, hi, lo));
  const std::size_t size = nl.nodes.size();
  std::size_t next = 0;
  for (unsigned v = 0; v < 3000; ++v)
    EXPECT_EQ(nl.addConst(BitVector(16, v)), ids[next++]);
  for (unsigned hi = 0; hi < 16; ++hi)
    for (unsigned lo = 0; lo <= hi; ++lo)
      EXPECT_EQ(nl.addSlice(a, hi, lo), ids[next++]);
  EXPECT_EQ(nl.nodes.size(), size);
}

TEST(Netlist, SweepDeadRemovesUnreachable) {
  Netlist nl;
  NetId a = nl.addInput("a", 8);
  NetId used = nl.addUnary(UnOp::BitNot, a);
  NetId dead = nl.addBinary(BinOp::Add, a, a);
  (void)dead;
  nl.addOutput("o", used);
  auto remap = nl.sweepDead();
  EXPECT_EQ(remap[dead], kNoNet);
  EXPECT_NE(remap[used], kNoNet);
  EXPECT_EQ(nl.nodes.size(), 2u);  // input + not
  // Registers are always roots, even when nothing reads them.
  Netlist nl2;
  NetId r = nl2.addReg("r", 4);
  nl2.setRegInputs(r, nl2.addConst(BitVector(4, 1)));
  auto remap2 = nl2.sweepDead();
  EXPECT_NE(remap2[r], kNoNet);
  EXPECT_EQ(nl2.nodes.size(), 2u);
}

TEST(Netlist, SweepKeepsTheIdsOfSpamsSharedModel) {
  // Sweeping a netlist already in evaluation order keeps every id, so the
  // Verilog emitted for it names and orders its nets as before the sweep.
  auto machine = archs::loadSpam();
  DiagnosticEngine diags;
  sim::SignatureTable sigs(*machine, diags);
  ASSERT_TRUE(sigs.valid()) << diags.dump();
  HwModel model = buildDatapath(*machine, sigs);
  shareResources(model, *machine);
  std::vector<NetId> remap = model.netlist.sweepDead();
  for (std::size_t i = 0; i < remap.size(); ++i)
    ASSERT_EQ(remap[i], static_cast<NetId>(i));
}

TEST(Netlist, ToggleCountingTracksActivity) {
  Netlist nl;
  NetId reg = nl.addReg("ctr", 8);
  NetId one = nl.addConst(BitVector(8, 1));
  nl.setRegInputs(reg, nl.addBinary(BinOp::Add, reg, one));
  synth::GateSim gs(nl);
  gs.enableToggleCounting(true);
  gs.step();
  std::uint64_t t1 = gs.toggleCount();
  gs.step();
  EXPECT_GT(gs.toggleCount(), t1);
}

}  // namespace
}  // namespace isdl::hw
