// Pins the gate-level simulator (synth/gatesim.h): exact toggle counts on
// small hand-built netlists, the two-phase commit, write-port priority, nets
// of 65 to 128 bits against the BitVector reference, and program loading.
// The toggle counts were recorded on the BitVector-per-node simulator this
// one replaced; the power figure of every evaluation depends on them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "archs/archs.h"
#include "explore/evaluate.h"
#include "hw/datapath.h"
#include "hw/netlist.h"
#include "isdl/parser.h"
#include "rtl/eval.h"
#include "sim/xsim.h"
#include "support/diag.h"
#include "support/strings.h"
#include "synth/gatesim.h"
#include "test_machines.h"
#include "testing/oracle.h"

namespace isdl {
namespace {

using hw::NetId;
using hw::Netlist;
using hw::NodeKind;
using rtl::BinOp;
using rtl::UnOp;

// --- netlists -----------------------------------------------------------

/// Every narrow node kind, driven by inputs a, b (16 bits) and s (1 bit).
struct NarrowNet {
  Netlist nl;
  NetId a, b, s;
  NarrowNet() {
    a = nl.addInput("a", 16);
    b = nl.addInput("b", 16);
    s = nl.addInput("s", 1);
    NetId sum = nl.addBinary(BinOp::Add, a, b);
    NetId x = nl.addBinary(BinOp::Xor, a, b);
    NetId na = nl.addUnary(UnOp::BitNot, a);
    NetId m = nl.addMux(s, sum, x);
    NetId sl = nl.addSlice(m, 11, 4);
    NetId cat = nl.addConcat({sl, s, nl.addSlice(na, 3, 0)});
    nl.addOutput("z", nl.addExt(NodeKind::ZExt, cat, 20));
    nl.addOutput("e", nl.addExt(NodeKind::SExt, sl, 24));
    nl.addOutput("t", nl.addExt(NodeKind::Trunc, sum, 5));
    nl.addOutput("eq", nl.addBinary(BinOp::Eq, a, b));
    nl.addOutput("lt", nl.addBinary(BinOp::SLt, a, b));
    nl.addOutput("and", nl.addBinary(BinOp::And, a,
                                     nl.addConst(BitVector(16, 0xF0F0))));
    nl.addOutput("or", nl.addBinary(BinOp::Or, a, b));
    nl.addOutput("red", nl.addUnary(UnOp::RedXor, b));
    nl.addOutput("as", nl.addAddSub(a, b, s));
  }
};

/// Nets of `width` (> 64) bits: p, q and a `width`-bit memory of depth 4.
struct WideNet {
  Netlist nl;
  unsigned width;
  NetId p, q, s, amt, addr, we;
  int mem;
  NetId sliceLow, sliceAcross, sliceHigh, sliceWide, trunc, mux, add, addSub,
      ult, neg, shl, catNarrow, catWide, zext, sext, read;
  explicit WideNet(unsigned w) : width(w) {
    p = nl.addInput("p", w);
    q = nl.addInput("q", w);
    s = nl.addInput("s", 1);
    amt = nl.addInput("amt", 8);
    addr = nl.addInput("addr", 2);
    we = nl.addInput("we", 1);
    sliceLow = nl.addSlice(p, 40, 10);
    sliceAcross = nl.addSlice(p, std::min(w - 1, 70u), 60);
    sliceHigh = nl.addSlice(p, w - 1, 64);
    sliceWide = nl.addSlice(p, w - 1, 1);
    trunc = nl.addExt(NodeKind::Trunc, p, 20);
    mux = nl.addMux(s, p, q);
    add = nl.addBinary(BinOp::Add, p, q);
    addSub = nl.addAddSub(p, q, s);
    ult = nl.addBinary(BinOp::ULt, p, q);
    neg = nl.addUnary(UnOp::Neg, p);
    shl = nl.addBinary(BinOp::Shl, p, amt);
    catNarrow = nl.addConcat({sliceHigh, sliceLow});
    catWide = nl.addConcat({sliceLow, q});
    zext = nl.addExt(NodeKind::ZExt, sliceLow, w + 7);
    sext = nl.addExt(NodeKind::SExt, sliceAcross, w);
    mem = nl.addMemory("m", w, 4);
    read = nl.addMemRead(mem, addr);
    nl.addMemWrite(mem, we, addr, q);
    for (NetId n : {sliceLow, sliceAcross, sliceHigh, sliceWide, trunc, mux,
                    add, addSub, ult, neg, shl, catNarrow, catWide, zext, sext,
                    read})
      nl.addOutput(cat("n", n), n);
  }
};

/// A `width`-bit value whose 64-bit words come from a splitmix64 stream.
BitVector wideValue(unsigned width, std::uint64_t seed) {
  BitVector r(width);
  for (unsigned lo = 0; lo < width; lo += 64) {
    std::uint64_t z = (seed += 0x9e3779b97f4a7c15u);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
    z ^= z >> 31;
    const unsigned hi = std::min(lo + 63, width - 1);
    r.insertSlice(hi, lo, BitVector(hi - lo + 1, z));
  }
  return r;
}

/// Steps NarrowNet through a fixed input sequence, returning the toggle
/// count after each clock.
std::vector<std::uint64_t> narrowToggles() {
  NarrowNet n;
  synth::GateSim gs(n.nl);
  gs.enableToggleCounting(true);
  const std::uint64_t inputs[][3] = {{0x1234, 0x0F0F, 0},
                                     {0xFFFF, 0x0001, 1},
                                     {0x0000, 0x0000, 0},
                                     {0x8000, 0x7FFF, 1},
                                     {0x8000, 0x7FFF, 1}};
  std::vector<std::uint64_t> out;
  for (const auto& in : inputs) {
    gs.setInput(n.a, BitVector(16, in[0]));
    gs.setInput(n.b, BitVector(16, in[1]));
    gs.setInput(n.s, BitVector(1, in[2]));
    gs.step();
    out.push_back(gs.toggleCount());
  }
  return out;
}

/// Steps a 96-bit WideNet through a fixed input sequence, returning the
/// toggle count after each clock.
std::vector<std::uint64_t> wideToggles() {
  WideNet n(96);
  synth::GateSim gs(n.nl);
  gs.enableToggleCounting(true);
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 0; k < 5; ++k) {
    gs.setInput(n.p, wideValue(96, 2 * k));
    gs.setInput(n.q, wideValue(96, 2 * k + 1));
    gs.setInput(n.s, BitVector(1, k & 1));
    gs.setInput(n.amt, BitVector(8, 13 * k));
    gs.setInput(n.addr, BitVector(2, k));
    gs.setInput(n.we, BitVector(1, 1));
    gs.step();
    out.push_back(gs.toggleCount());
  }
  return out;
}

TEST(GateSim, NarrowToggleCountsAreExact) {
  EXPECT_EQ(narrowToggles(),
            (std::vector<std::uint64_t>{108, 214, 301, 426, 426}));
}

TEST(GateSim, WideToggleCountsAreExact) {
  EXPECT_EQ(wideToggles(),
            (std::vector<std::uint64_t>{523, 995, 1528, 1995, 2463}));
}

TEST(GateSim, ConstantsToggleOnlyOnTheFirstClockAfterReset) {
  Netlist nl;
  nl.addOutput("k", nl.addConst(BitVector(16, 0x0FF1)));
  synth::GateSim gs(nl);
  gs.enableToggleCounting(true);
  gs.step();
  EXPECT_EQ(gs.toggleCount(), 9u);
  gs.step();
  EXPECT_EQ(gs.toggleCount(), 9u);
  gs.reset();
  EXPECT_EQ(gs.peekNet(0).toUint64(), 0u);
  gs.step();
  EXPECT_EQ(gs.toggleCount(), 9u);
  EXPECT_EQ(gs.peekNet(0).toUint64(), 0x0FF1u);
}

TEST(GateSim, EnableFromAnotherRegisterIsSampledBeforeCommit) {
  // `en` flips every clock; `r` counts on the clocks whose *pre-clock* `en`
  // is high. Reading `en` after its own commit would count one clock early.
  Netlist nl;
  NetId en = nl.addReg("en", 1);
  nl.setRegInputs(en, nl.notNet(en));
  NetId r = nl.addReg("r", 8);
  nl.setRegInputs(r, nl.addBinary(BinOp::Add, r,
                                  nl.addConst(BitVector(8, 1))),
                  en);
  synth::GateSim gs(nl);
  for (std::uint64_t k = 1; k <= 7; ++k) {
    gs.step();
    EXPECT_EQ(gs.peekNet(en).toUint64(), k & 1) << "clock " << k;
    EXPECT_EQ(gs.peekNet(r).toUint64(), k / 2) << "clock " << k;
  }
}

TEST(GateSim, LaterWritePortWinsWithPreClockData) {
  // Both ports write address 2 in the same clock; port 1 wins when enabled.
  // Their data come from register d, which advances in the same clock: the
  // memory must see d's pre-clock value.
  Netlist nl;
  NetId we1 = nl.addInput("we1", 1);
  NetId d = nl.addReg("d", 8);
  nl.setRegInputs(d, nl.addBinary(BinOp::Add, d,
                                  nl.addConst(BitVector(8, 1))));
  int mem = nl.addMemory("m", 8, 4);
  NetId two = nl.addConst(BitVector(2, 2));
  nl.addMemWrite(mem, nl.one(), two, d);
  nl.addMemWrite(mem, we1, two,
                 nl.addBinary(BinOp::Add, d, nl.addConst(BitVector(8, 100))));
  NetId read = nl.addMemRead(mem, two);
  synth::GateSim gs(nl);
  gs.pokeReg(d, BitVector(8, 5));
  gs.setInput(we1, BitVector(1, 1));
  gs.step();
  EXPECT_EQ(gs.peekMemory(mem, 2).toUint64(), 105u);
  EXPECT_EQ(gs.peekNet(d).toUint64(), 6u);
  gs.setInput(we1, BitVector(1, 0));
  gs.step();
  EXPECT_EQ(gs.peekNet(read).toUint64(), 105u);  // read before the commit
  EXPECT_EQ(gs.peekMemory(mem, 2).toUint64(), 6u);
}

class GateSimWide : public ::testing::TestWithParam<unsigned> {};

TEST_P(GateSimWide, MatchesTheBitVectorReference) {
  const unsigned w = GetParam();
  WideNet n(w);
  synth::GateSim gs(n.nl);
  for (std::uint64_t k = 0; k < 8; ++k) {
    SCOPED_TRACE(cat("width ", w, ", vector ", k));
    const BitVector p = wideValue(w, 100 + 2 * k);
    const BitVector q = k == 3 ? p : wideValue(w, 101 + 2 * k);
    const BitVector s(1, k & 1), amt(8, 9 * k), addr(2, k % 4);
    gs.setInput(n.p, p);
    gs.setInput(n.q, q);
    gs.setInput(n.s, s);
    gs.setInput(n.amt, amt);
    gs.setInput(n.addr, addr);
    gs.setInput(n.we, BitVector(1, 1));
    const BitVector before = gs.peekMemory(n.mem, k % 4);
    gs.step();

    EXPECT_EQ(gs.peekNet(n.sliceLow), p.slice(40, 10));
    EXPECT_EQ(gs.peekNet(n.sliceAcross), p.slice(std::min(w - 1, 70u), 60));
    EXPECT_EQ(gs.peekNet(n.sliceHigh), p.slice(w - 1, 64));
    EXPECT_EQ(gs.peekNet(n.sliceWide), p.slice(w - 1, 1));
    EXPECT_EQ(gs.peekNet(n.trunc), p.trunc(20));
    EXPECT_EQ(gs.peekNet(n.mux), k & 1 ? p : q);
    EXPECT_EQ(gs.peekNet(n.add), rtl::applyBinOp(BinOp::Add, p, q));
    EXPECT_EQ(gs.peekNet(n.addSub), k & 1 ? p.sub(q) : p.add(q));
    EXPECT_EQ(gs.peekNet(n.ult), rtl::applyBinOp(BinOp::ULt, p, q));
    EXPECT_EQ(gs.peekNet(n.neg), rtl::applyUnOp(UnOp::Neg, p));
    EXPECT_EQ(gs.peekNet(n.shl), rtl::applyBinOp(BinOp::Shl, p, amt));
    EXPECT_EQ(gs.peekNet(n.catNarrow),
              p.slice(w - 1, 64).concat(p.slice(40, 10)));
    EXPECT_EQ(gs.peekNet(n.catWide), p.slice(40, 10).concat(q));
    EXPECT_EQ(gs.peekNet(n.zext), p.slice(40, 10).zext(w + 7));
    EXPECT_EQ(gs.peekNet(n.sext),
              p.slice(std::min(w - 1, 70u), 60).sext(w));
    // The read sees the memory before this clock's write of q.
    EXPECT_EQ(gs.peekNet(n.read), before);
    EXPECT_EQ(gs.peekMemory(n.mem, k % 4), q);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, GateSimWide,
                         ::testing::Values(65u, 96u, 128u));

TEST(GateSim, MemoryAccessOutsideTheDepthThrows) {
  Netlist nl;
  int mem = nl.addMemory("m", 8, 4);
  synth::GateSim gs(nl);
  gs.pokeMemory(mem, 3, BitVector(8, 9));
  EXPECT_EQ(gs.peekMemory(mem, 3).toUint64(), 9u);
  EXPECT_THROW(gs.pokeMemory(mem, 4, BitVector(8, 1)), IsdlError);
  EXPECT_THROW(gs.peekMemory(mem, 4), IsdlError);
}

// --- program loading -----------------------------------------------------

/// SREP with a second, smaller data memory declared before DM.
std::string srepWithAux() {
  std::string src = archs::srepIsdl();
  const std::string dm = "data_memory DM";
  src.insert(src.find(dm), "data_memory AUX width 32 depth 4;\n    ");
  return src;
}

constexpr const char* kAuxProgram = R"(
        .dm 100 7
        li R1, 100
        ld R2, R1
        halt
)";

sim::AssembledProgram assemble(const sim::Xsim& xsim, const char* source) {
  DiagnosticEngine diags;
  auto prog = sim::Assembler(xsim.signatures()).assemble(source, diags);
  EXPECT_TRUE(prog.has_value()) << diags.dump();
  return prog.value_or(sim::AssembledProgram{});
}

// `.dm` records initialise the last data memory, in every engine; a model
// that also wrote them to the 4-deep AUX wrote past its end.
TEST(GateSimLoadProgram, DataRecordsGoToTheLastDataMemory) {
  explore::EvaluateOptions opts;
  opts.measurePower = true;
  explore::Evaluation ev = explore::evaluateIsdl(srepWithAux(), kAuxProgram,
                                                 opts);
  ASSERT_TRUE(ev.ok) << ev.error;
  EXPECT_GT(ev.powerMw, 0.0);

  auto m = parseAndCheckIsdl(srepWithAux());
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->dataMemoryIndex(), m->findStorage("DM"));
  sim::Xsim xsim(*m);
  const sim::AssembledProgram prog = assemble(xsim, kAuxProgram);
  std::string err;
  ASSERT_TRUE(xsim.loadProgram(prog, &err)) << err;
  ASSERT_EQ(xsim.run(100).reason, sim::StopReason::Halted);
  xsim.drainPipeline();
  hw::HwModel model = hw::buildDatapath(*m, xsim.signatures());
  std::vector<std::string> divergences;
  testing::compareWithHardware(*m, xsim, model, prog, 100, divergences);
  EXPECT_TRUE(divergences.empty()) << join(divergences, "\n");

  synth::GateSim gs(model.netlist);
  ASSERT_TRUE(gs.loadProgram(*m, model, prog, &err)) << err;
  ASSERT_TRUE(gs.runUntil(model.haltedReg, 100));
  const auto aux = unsigned(m->findStorage("AUX"));
  const auto rf = unsigned(m->findStorage("RF"));
  for (std::uint64_t e = 0; e < 4; ++e) {
    EXPECT_TRUE(xsim.state().read(aux, e).isZero()) << "AUX[" << e << "]";
    EXPECT_TRUE(gs.peekMemory(model.storage[aux].mem, e).isZero())
        << "AUX[" << e << "]";
  }
  EXPECT_EQ(xsim.state().read(rf, 2).toUint64(), 7u);
  EXPECT_EQ(gs.peekMemory(model.storage[rf].mem, 2).toUint64(), 7u);
}

TEST(GateSimLoadProgram, RejectsWhatXsimRejects) {
  auto m = archs::loadSrep();
  sim::Xsim xsim(*m);
  hw::HwModel model = hw::buildDatapath(*m, xsim.signatures());
  synth::GateSim gs(model.netlist);
  std::string err;

  sim::AssembledProgram far = assemble(xsim, ".dm 1024 1\nhalt\n");
  EXPECT_FALSE(xsim.loadProgram(far, &err));
  EXPECT_FALSE(gs.loadProgram(*m, model, far, &err));
  EXPECT_EQ(err, ".dm address 1024 out of range");

  sim::AssembledProgram big = assemble(xsim, "halt\n");
  big.words.resize(1025, big.words[0]);
  EXPECT_FALSE(gs.loadProgram(*m, model, big, &err));
  EXPECT_EQ(err,
            "program (1025 words) does not fit in instruction memory "
            "(depth 1024)");
  // A rejected program changes nothing.
  EXPECT_TRUE(gs.peekMemory(model.storage[m->imemIndex].mem, 0).isZero());
}

// The 96-bit machine runs on XSIM's interpreter (its values do not fit in 64
// bits) and through the wide paths of the hardware model.
TEST(GateSimLoadProgram, WideMachineMatchesXsim) {
  auto m = parseAndCheckIsdl(testing::kWideIsdl);
  ASSERT_NE(m, nullptr);
  sim::Xsim xsim(*m);
  const sim::AssembledProgram prog = assemble(xsim, testing::kWideProgram);
  std::string err;
  ASSERT_TRUE(xsim.loadProgram(prog, &err)) << err;
  ASSERT_EQ(xsim.run(100).reason, sim::StopReason::Halted);
  xsim.drainPipeline();
  hw::HwModel model = hw::buildDatapath(*m, xsim.signatures());
  std::vector<std::string> divergences;
  testing::compareWithHardware(*m, xsim, model, prog, 100, divergences);
  EXPECT_TRUE(divergences.empty()) << join(divergences, "\n");
}

}  // namespace
}  // namespace isdl
