#include "synth/mapper.h"

#include <algorithm>
#include <cmath>

#include "support/diag.h"

namespace isdl::synth {

namespace {

double log2ceil(double w) { return std::max(1.0, std::ceil(std::log2(w))); }

NodeCost scaleFp(double area, double delay, unsigned width) {
  double s = width > 32 ? 3.0 : 1.0;
  return {area * s, delay * (width > 32 ? 1.6 : 1.0), area * s / 4.0};
}

}  // namespace

const CellLibrary& defaultLibrary() {
  static const CellLibrary lib;
  return lib;
}

NodeCost costOfNode(const hw::Netlist& nl, hw::NetId id,
                    const CellLibrary& lib) {
  using hw::NodeKind;
  using rtl::BinOp;
  const hw::Node& n = nl.nodes[id];
  const double w = n.width;
  NodeCost c;

  auto gates = [&](const Cell& cell, double count, double levels = 1) {
    c.area += cell.area * count;
    c.cells += count;
    c.delay = std::max(c.delay, cell.delay * levels);
  };

  switch (n.kind) {
    case NodeKind::Input:
    case NodeKind::Const:
    case NodeKind::Slice:
    case NodeKind::Concat:
    case NodeKind::ZExt:
    case NodeKind::SExt:
    case NodeKind::Trunc:
      return c;  // wiring only

    case NodeKind::Reg:
      c.area = lib.dff.area * w;
      c.cells = w;
      c.delay = 0;  // handled as clk-to-q / setup in the STA
      return c;

    case NodeKind::MemRead: {
      const hw::Memory& m = nl.memories[n.memId];
      c.delay = lib.ramAccessDelay +
                lib.ramAddrDecodePerLevel * log2ceil(double(m.depth));
      // Array area is accounted once per memory in mapArea, not per port;
      // each extra read port costs decode + sensing logic.
      c.area = lib.ramReadPortAreaPerBit * m.width;
      c.cells = m.width;
      return c;
    }

    case NodeKind::Unary:
      switch (n.unOp) {
        case rtl::UnOp::BitNot: gates(lib.inv, w); break;
        case rtl::UnOp::Neg:
          gates(lib.inv, w);
          gates(lib.fullAdder, w);
          c.delay = lib.fullAdder.delay +
                    lib.carryLevelDelay * log2ceil(w);
          break;
        case rtl::UnOp::LogNot:
        case rtl::UnOp::RedOr:
          gates(lib.or2, w - 1, log2ceil(w));
          break;
        case rtl::UnOp::RedAnd:
          gates(lib.and2, w - 1, log2ceil(w));
          break;
        case rtl::UnOp::RedXor:
          gates(lib.xor2, w - 1, log2ceil(w));
          break;
      }
      return c;

    case NodeKind::AddSub:
      return addSubCost(nl.widthOf(nl.ins(id)[0]), lib);

    case NodeKind::Mux:
      gates(lib.mux21, w);
      return c;

    case NodeKind::IToF:
    case NodeKind::FToI:
      return scaleFp(lib.fp32CvtArea, lib.fp32CvtDelay, n.width);

    case NodeKind::Binary: {
      double inW = nl.widthOf(nl.ins(id)[0]);
      switch (n.binOp) {
        case BinOp::Add:
        case BinOp::Sub:
          gates(lib.fullAdder, inW);
          c.delay = lib.fullAdder.delay +
                    lib.carryLevelDelay * log2ceil(inW);
          return c;
        case BinOp::Mul:
          // Array multiplier: w^2 adder cells, log-depth reduction tree.
          gates(lib.fullAdder, inW * inW * 0.9);
          c.delay = lib.fullAdder.delay * (1.0 + 1.2 * log2ceil(inW));
          return c;
        case BinOp::UDiv:
        case BinOp::SDiv:
        case BinOp::URem:
        case BinOp::SRem:
          // Restoring array divider: w rows of w-bit subtract-and-select.
          gates(lib.fullAdder, inW * inW);
          gates(lib.mux21, inW * inW);
          c.delay = inW * (lib.fullAdder.delay * 0.6);
          return c;
        case BinOp::Shl:
        case BinOp::LShr:
        case BinOp::AShr: {
          double levels = log2ceil(inW);
          gates(lib.mux21, inW * levels, levels);
          return c;
        }
        case BinOp::And: gates(lib.and2, inW); return c;
        case BinOp::Or: gates(lib.or2, inW); return c;
        case BinOp::Xor: gates(lib.xor2, inW); return c;
        case BinOp::LogAnd: gates(lib.and2, 1); return c;
        case BinOp::LogOr: gates(lib.or2, 1); return c;
        case BinOp::Eq:
        case BinOp::Ne:
          gates(lib.xor2, inW);
          gates(lib.or2, inW - 1, log2ceil(inW));
          c.delay = lib.xor2.delay + lib.or2.delay * log2ceil(inW);
          return c;
        case BinOp::ULt: case BinOp::ULe: case BinOp::UGt: case BinOp::UGe:
        case BinOp::SLt: case BinOp::SLe: case BinOp::SGt: case BinOp::SGe:
          gates(lib.fullAdder, inW);  // comparison = subtraction
          c.delay = lib.fullAdder.delay +
                    lib.carryLevelDelay * log2ceil(inW);
          return c;
        case BinOp::FAdd:
        case BinOp::FSub:
          return scaleFp(lib.fp32AddArea, lib.fp32AddDelay, inW);
        case BinOp::FMul:
          return scaleFp(lib.fp32MulArea, lib.fp32MulDelay, inW);
        case BinOp::FDiv:
          return scaleFp(lib.fp32DivArea, lib.fp32DivDelay, inW);
        case BinOp::FEq: case BinOp::FLt: case BinOp::FLe:
          return scaleFp(lib.fp32CmpArea, lib.fp32CmpDelay, inW);
      }
      return c;
    }
  }
  return c;
}

NodeCost addSubCost(unsigned width, const CellLibrary& lib) {
  const double w = width;  // full adders behind an xor2 inversion stage
  return {lib.fullAdder.area * w + lib.xor2.area * w,
          lib.xor2.delay + lib.fullAdder.delay +
              lib.carryLevelDelay * log2ceil(w),
          w + w};
}

AreaReport mapArea(const hw::Netlist& nl, const CellLibrary& lib) {
  AreaReport r;
  for (std::size_t i = 0; i < nl.nodes.size(); ++i) {
    NodeCost c = costOfNode(nl, static_cast<hw::NetId>(i), lib);
    if (nl.nodes[i].kind == hw::NodeKind::Reg)
      r.flopArea += c.area;
    else
      r.logicArea += c.area;
    r.cellCount += c.cells;
  }
  for (const auto& m : nl.memories) {
    r.ramArea += lib.ramAreaPerBit * double(m.width) * double(m.depth);
    // Write-port logic: a data mux per bit.
    r.logicArea += lib.mux21.area * m.width * double(m.writePorts.size());
  }
  r.logicArea *= lib.wiringOverhead;
  r.flopArea *= lib.wiringOverhead;
  r.totalArea = r.logicArea + r.flopArea + r.ramArea;
  return r;
}

TimingReport analyzeTiming(const hw::Netlist& nl, const CellLibrary& lib) {
  nl.checkLevelized();
  std::vector<double> arrival(nl.nodes.size(), 0.0);
  std::vector<hw::NetId> from(nl.nodes.size(), hw::kNoNet);

  for (hw::NetId id = 0; id < static_cast<hw::NetId>(nl.nodes.size());
       ++id) {
    const hw::Node& n = nl.nodes[id];
    if (n.kind == hw::NodeKind::Reg) {
      arrival[id] = lib.dffClkToQ;
      continue;
    }
    if (n.kind == hw::NodeKind::Input || n.kind == hw::NodeKind::Const) {
      arrival[id] = 0.0;
      continue;
    }
    double inArrival = 0.0;
    for (hw::NetId in : nl.ins(id)) {
      if (in == hw::kNoNet) continue;
      if (arrival[in] > inArrival) {
        inArrival = arrival[in];
        from[id] = in;
      }
    }
    arrival[id] = inArrival + costOfNode(nl, id, lib).delay;
  }

  // Endpoints: register data/enable inputs and memory write ports.
  double worst = 0.0;
  hw::NetId worstNet = hw::kNoNet;
  auto consider = [&](hw::NetId net) {
    if (net == hw::kNoNet) return;
    double t = arrival[net] + lib.dffSetup;
    if (t > worst) {
      worst = t;
      worstNet = net;
    }
  };
  for (hw::NetId id = 0; id < static_cast<hw::NetId>(nl.nodes.size()); ++id)
    if (nl.nodes[id].kind == hw::NodeKind::Reg)
      for (hw::NetId in : nl.ins(id)) consider(in);
  for (const auto& m : nl.memories) {
    for (const auto& p : m.writePorts) {
      consider(p.enable);
      consider(p.addr);
      consider(p.data);
    }
  }

  TimingReport r;
  r.criticalPathNs = worst;
  for (hw::NetId at = worstNet; at != hw::kNoNet; at = from[at])
    r.criticalPath.push_back(at);
  std::reverse(r.criticalPath.begin(), r.criticalPath.end());
  return r;
}

double estimatePowerMw(double togglesPerCycle, double criticalPathNs,
                       double energyPerToggledBitPj) {
  if (criticalPathNs <= 0) return 0;
  double freqMhz = 1000.0 / criticalPathNs;
  // pJ * MHz = microwatts; convert to mW.
  return energyPerToggledBitPj * togglesPerCycle * freqMhz / 1000.0;
}

}  // namespace isdl::synth
