#include "synth/gatesim.h"

#include <algorithm>
#include <bit>

#include "hw/datapath.h"
#include "isdl/model.h"
#include "rtl/eval.h"
#include "rtl/narrow_alu.h"
#include "sim/assembler.h"
#include "support/compiler.h"
#include "support/diag.h"
#include "support/strings.h"

// Toggle counting takes a popcount per net per clock. x86-64's baseline ISA
// has no popcount instruction and falls back to a libgcc call, so the
// counting loop is also compiled for CPUs with POPCNT and picked when the
// program loads (perfbench `power` runs 1.3x more ops per second with it on
// a 4-core Intel Xeon host). The loop is force-inlined into each clone, so
// that it takes the clone's target.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__POPCNT__)
#define ISDL_POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#else
#define ISDL_POPCNT_CLONES
#endif

// The hot entry points (step, runUntil and the counting loop's clones) are
// ISDL_HOT_ALIGN. Unaligned, 40 bytes of padding in the code before
// gatesim.cpp moved perfbench `power` by 3.6 %; aligned, padding by 0, 40
// and 112 bytes read within 0.4 %.

namespace isdl::synth {

using hw::kNoNet;
using hw::NetId;
using hw::NodeKind;

namespace {

std::uint32_t wordsFor(unsigned width) { return (width + 63) / 64; }

/// Writes `v` resized to `width` as wordsFor(width) words.
void toWords(const BitVector& v, unsigned width, std::uint64_t* dst) {
  const BitVector r = v.resize(width);
  for (unsigned i = 0; i < wordsFor(width); ++i) dst[i] = r.word(i);
}

bool anySet(const std::uint64_t* p, std::uint32_t words) {
  for (std::uint32_t i = 0; i < words; ++i)
    if (p[i]) return true;
  return false;
}

/// Copies `n` words, returning the bits that toggled when counting.
template <bool kCountToggles>
std::uint64_t moveWords(std::uint64_t* dst, const std::uint64_t* src,
                        std::uint32_t n) {
  std::uint64_t toggles = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if constexpr (kCountToggles) toggles += std::popcount(dst[i] ^ src[i]);
    dst[i] = src[i];
  }
  return toggles;
}

}  // namespace

GateSim::GateSim(const hw::Netlist& netlist) : nl_(&netlist) {
  lower();
  reset();
}

std::uint32_t GateSim::wordsOf(NetId net) const {
  return wordsFor(nl_->nodes[net].width);
}

void GateSim::lower() {
  const std::vector<hw::Node>& nodes = nl_->nodes;
  std::uint32_t total = 0;
  offset_.resize(nodes.size());
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    offset_[id] = total;
    total += wordsFor(nodes[id].width);
  }
  values_.resize(total);

  std::size_t memTotal = 0;
  for (const hw::Memory& m : nl_->memories) {
    memInfo_.push_back({memTotal, m.depth, m.width, wordsFor(m.width)});
    memTotal += m.depth * wordsFor(m.width);
  }
  mems_.resize(memTotal);

  Program& p = prog_;
  p.code.reserve(nodes.size());
  p.op.reserve(nodes.size());
  for (auto* field : {&p.dst, &p.a, &p.b, &p.c, &p.w, &p.aw, &p.bw, &p.x, &p.y})
    field->reserve(nodes.size());
  struct Instr {
    Op code;
    std::uint8_t op = 0;
    std::uint32_t a = 0, b = 0, c = 0, aw = 0, bw = 0, x = 0, y = 0;
  };
  auto emit = [&](NetId id, const Instr& in) {
    p.code.push_back(in.code);
    p.op.push_back(in.op);
    p.dst.push_back(offset_[id]);
    p.a.push_back(in.a);
    p.b.push_back(in.b);
    p.c.push_back(in.c);
    p.w.push_back(nodes[id].width);
    p.aw.push_back(in.aw);
    p.bw.push_back(in.bw);
    p.x.push_back(in.x);
    p.y.push_back(in.y);
  };
  // Concat and Reference operands go to args; returns their range's end.
  auto pushArgs = [&](NetId id) {
    for (NetId in : nl_->ins(id))
      p.args.push_back({offset_[in], nodes[in].width});
    return static_cast<std::uint32_t>(p.args.size());
  };

  nl_->checkLevelized();
  for (NetId id = 0; id < static_cast<NetId>(nodes.size()); ++id) {
    const hw::Node& n = nodes[id];
    if (n.kind == NodeKind::Input || n.kind == NodeKind::Reg) continue;
    if (n.kind == NodeKind::Const) {
      const auto pool = static_cast<std::uint32_t>(constPool_.size());
      constPool_.resize(pool + wordsOf(id));
      toWords(n.constValue, n.width, constPool_.data() + pool);
      consts_.push_back({offset_[id], wordsOf(id), pool});
      continue;
    }
    const std::span<const NetId> ins = nl_->ins(id);
    auto in = [&](std::size_t k) { return offset_[ins[k]]; };
    auto width = [&](std::size_t k) { return nodes[ins[k]].width; };
    const auto args = static_cast<std::uint32_t>(p.args.size());
    if (n.kind == NodeKind::MemRead) {
      emit(id, {.code = Op::MemRead, .a = in(0),
                .x = static_cast<std::uint32_t>(n.memId)});
      continue;
    }
    bool narrow = n.width <= 64;
    for (std::size_t k = 0; k < ins.size(); ++k)
      narrow = narrow && width(k) <= 64;
    if (narrow) {
      switch (n.kind) {
        case NodeKind::Unary:
          emit(id, {.code = Op::Unary, .op = std::uint8_t(n.unOp),
                    .a = in(0), .aw = width(0)});
          break;
        case NodeKind::Binary:
          emit(id, {.code = Op::Binary, .op = std::uint8_t(n.binOp),
                    .a = in(0), .b = in(1), .aw = width(0), .bw = width(1)});
          break;
        case NodeKind::AddSub:
          emit(id, {.code = Op::AddSub, .a = in(0), .b = in(1), .c = in(2),
                    .aw = width(0), .bw = width(1)});
          break;
        case NodeKind::Mux:
          emit(id, {.code = Op::Mux, .a = in(0), .b = in(1), .c = in(2)});
          break;
        case NodeKind::Slice:
          emit(id, {.code = Op::Slice, .a = in(0), .aw = width(0), .x = n.hi,
                    .y = n.lo});
          break;
        case NodeKind::Concat:
          emit(id, {.code = Op::Concat, .x = args, .y = pushArgs(id)});
          break;
        case NodeKind::ZExt:
        case NodeKind::SExt:
        case NodeKind::Trunc:
        case NodeKind::IToF:
        case NodeKind::FToI: {
          const Op code = n.kind == NodeKind::ZExt   ? Op::ZExt
                          : n.kind == NodeKind::SExt ? Op::SExt
                          : n.kind == NodeKind::Trunc ? Op::Trunc
                          : n.kind == NodeKind::IToF  ? Op::IToF
                                                      : Op::FToI;
          emit(id, {.code = code, .a = in(0), .aw = width(0)});
          break;
        }
        default:
          break;  // Input, Const, Reg and MemRead are handled above
      }
      continue;
    }
    if (n.kind == NodeKind::Mux && width(0) <= 64 && width(1) == n.width &&
        width(2) == n.width) {
      emit(id, {.code = Op::MuxWide, .a = in(0), .b = in(1), .c = in(2),
                .x = wordsOf(id)});
      continue;
    }
    if (n.width <= 64 &&
        (n.kind == NodeKind::Slice || n.kind == NodeKind::Trunc)) {
      const unsigned lo = n.kind == NodeKind::Slice ? n.lo : 0;
      emit(id, {.code = Op::SliceWide, .a = in(0), .aw = width(0),
                .x = lo + n.width - 1, .y = lo});
      continue;
    }
    const auto ref = static_cast<std::uint32_t>(p.refs.size());
    p.refs.push_back({n.kind,
                      n.kind == NodeKind::Unary ? std::uint8_t(n.unOp)
                                                : std::uint8_t(n.binOp),
                      n.hi, n.lo});
    emit(id, {.code = Op::Reference, .a = ref, .x = args, .y = pushArgs(id)});
  }

  std::uint32_t regWords = 0;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const hw::Node& n = nodes[id];
    if (n.kind != NodeKind::Reg) continue;
    const NetId next = nl_->ins(NetId(id))[0];
    const NetId enable = nl_->ins(NetId(id))[1];
    if (next == kNoNet) continue;
    if (nodes[next].width != n.width)
      throw IsdlError(cat("register '", n.name, "' is ", n.width,
                          " bits but its next value is ", nodes[next].width));
    regs_.push_back({offset_[id], offset_[next], wordsOf(NetId(id)),
                     enable == kNoNet ? 0 : offset_[enable],
                     enable == kNoNet ? 0 : wordsOf(enable)});
    regWords += wordsOf(NetId(id));
  }
  std::uint32_t portWords = 0;
  for (std::size_t m = 0; m < nl_->memories.size(); ++m) {
    const hw::Memory& mem = nl_->memories[m];
    for (const hw::MemWritePort& port : mem.writePorts) {
      if (nodes[port.data].width != mem.width)
        throw IsdlError(cat("memory '", mem.name, "' is ", mem.width,
                            " bits wide but a write port's data is ",
                            nodes[port.data].width));
      ports_.push_back({static_cast<std::uint32_t>(m), offset_[port.enable],
                        wordsOf(port.enable), offset_[port.addr],
                        offset_[port.data]});
      portWords += memInfo_[m].words;
    }
  }
  regFired_.resize(regs_.size());
  regSample_.resize(regWords);
  portFired_.resize(ports_.size());
  portAddr_.resize(ports_.size());
  portSample_.resize(portWords);
}

void GateSim::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(mems_.begin(), mems_.end(), 0);
  clocks_ = 0;
  toggles_ = 0;
  constsLoaded_ = false;
}

bool GateSim::loadProgram(const Machine& machine, const hw::HwModel& model,
                          const sim::AssembledProgram& prog,
                          std::string* error) {
  auto fail = [&](std::string msg) {
    if (error) *error = std::move(msg);
    return false;
  };
  const int imem = model.storage[machine.imemIndex].mem;
  if (prog.words.size() > memInfo_[imem].depth)
    return fail(cat("program (", prog.words.size(),
                    " words) does not fit in instruction memory (depth ",
                    memInfo_[imem].depth, ")"));
  const int dm = machine.dataMemoryIndex();
  if (!prog.dataInit.empty() && dm < 0)
    return fail(".dm record but the machine has no data_memory");
  for (const auto& [addr, value] : prog.dataInit)
    if (addr >= memInfo_[model.storage[dm].mem].depth)
      return fail(cat(".dm address ", addr, " out of range"));

  loadMemory(imem, prog.words);
  for (const auto& [addr, value] : prog.dataInit)
    pokeMemory(model.storage[dm].mem, addr, value);
  return true;
}

const GateSim::Mem& GateSim::memory(int memId, std::uint64_t addr) const {
  const Mem& m = memInfo_.at(static_cast<std::size_t>(memId));
  if (addr >= m.depth)
    throw IsdlError(cat("memory '", nl_->memories[memId].name, "': address ",
                        addr, " out of range (depth ", m.depth, ")"));
  return m;
}

void GateSim::loadMemory(int memId, const std::vector<BitVector>& contents) {
  const Mem& m = memInfo_.at(static_cast<std::size_t>(memId));
  for (std::size_t i = 0; i < contents.size() && i < m.depth; ++i)
    toWords(contents[i], m.width, mems_.data() + m.base + i * m.words);
}

void GateSim::pokeMemory(int memId, std::uint64_t addr,
                         const BitVector& value) {
  const Mem& m = memory(memId, addr);
  toWords(value, m.width, mems_.data() + m.base + addr * m.words);
}

BitVector GateSim::peekMemory(int memId, std::uint64_t addr) const {
  const Mem& m = memory(memId, addr);
  return BitVector::fromWords(m.width, mems_.data() + m.base + addr * m.words);
}

void GateSim::pokeReg(NetId reg, const BitVector& value) {
  toWords(value, nl_->nodes[reg].width, values_.data() + offset_[reg]);
}

void GateSim::setInput(NetId input, const BitVector& value) {
  pokeReg(input, value);
}

BitVector GateSim::peekNet(NetId net) const {
  return BitVector::fromWords(nl_->nodes[net].width,
                              values_.data() + offset_[net]);
}

// Constants never change, so they are written once per reset, on the first
// clock, whose toggles they count.
void GateSim::loadConsts() {
  for (const ConstLoad& k : consts_) {
    std::uint64_t* dst = values_.data() + k.dst;
    const std::uint64_t* src = constPool_.data() + k.pool;
    toggles_ += countToggles_ ? moveWords<true>(dst, src, k.words)
                              : moveWords<false>(dst, src, k.words);
  }
  constsLoaded_ = true;
}

template <bool kCountToggles>
ISDL_ALWAYS_INLINE void GateSim::evalCombinational() {
  using narrow::Val;
  std::uint64_t* const v = values_.data();
  const Program& p = prog_;
  const Op* const code = p.code.data();
  const std::uint8_t* const op = p.op.data();
  const std::uint32_t *const dst = p.dst.data(), *const a = p.a.data(),
                      *const b = p.b.data(), *const c = p.c.data(),
                      *const w = p.w.data(), *const aw = p.aw.data(),
                      *const bw = p.bw.data(), *const x = p.x.data(),
                      *const y = p.y.data();
  std::uint64_t toggles = 0;
  for (std::size_t i = 0, n = p.code.size(); i < n; ++i) {
    std::uint64_t r;
    switch (code[i]) {
      case Op::Unary:
        r = narrow::unOp(narrow::UnOp(op[i]), Val{v[a[i]], aw[i]}).v;
        break;
      case Op::Binary:
        r = narrow::binOp(narrow::BinOp(op[i]), Val{v[a[i]], aw[i]},
                          Val{v[b[i]], bw[i]})
                .v;
        break;
      case Op::AddSub:
        r = narrow::binOp(v[c[i]] ? narrow::BinOp::Sub : narrow::BinOp::Add,
                          Val{v[a[i]], aw[i]}, Val{v[b[i]], bw[i]})
                .v;
        break;
      case Op::Mux:
        r = v[a[i]] ? v[b[i]] : v[c[i]];
        break;
      case Op::Slice:
        r = narrow::slice(Val{v[a[i]], aw[i]}, x[i], y[i]).v;
        break;
      case Op::Concat: {
        const auto* arg = p.args.data() + x[i];
        const auto* const end = p.args.data() + y[i];
        Val joined{v[arg->first], arg->second};
        for (++arg; arg != end; ++arg)
          joined = narrow::concat(joined, Val{v[arg->first], arg->second});
        r = joined.v;
        break;
      }
      case Op::ZExt:
        r = narrow::zext(Val{v[a[i]], aw[i]}, w[i]).v;
        break;
      case Op::SExt:
        r = narrow::sext(Val{v[a[i]], aw[i]}, w[i]).v;
        break;
      case Op::Trunc:
        r = narrow::trunc(Val{v[a[i]], aw[i]}, w[i]).v;
        break;
      case Op::IToF:
        r = narrow::itof(Val{v[a[i]], aw[i]}, w[i]).v;
        break;
      case Op::FToI:
        r = narrow::ftoi(Val{v[a[i]], aw[i]}, w[i]).v;
        break;
      case Op::SliceWide: {
        // A slice of at most 64 bits spans at most two words of its source.
        const std::uint64_t* src = v + a[i] + y[i] / 64;
        const unsigned shift = y[i] % 64;
        r = src[0] >> shift;
        if (shift + w[i] > 64) r |= src[1] << (64 - shift);
        r &= narrow::maskOf(w[i]);
        break;
      }
      case Op::MemRead: {
        const Mem& m = memInfo_[x[i]];
        const std::uint64_t* src = mems_.data() + m.base +
                                   (v[a[i]] % m.depth) * m.words;
        toggles += moveWords<kCountToggles>(v + dst[i], src, m.words);
        continue;
      }
      case Op::MuxWide:
        toggles += moveWords<kCountToggles>(
            v + dst[i], v + (v[a[i]] ? b[i] : c[i]), x[i]);
        continue;
      case Op::Reference: {
        const std::uint64_t t = evalReference(i);
        if constexpr (kCountToggles) toggles += t;
        continue;
      }
    }
    if constexpr (kCountToggles) toggles += std::popcount(v[dst[i]] ^ r);
    v[dst[i]] = r;
  }
  toggles_ += toggles;
}

ISDL_HOT_ALIGN ISDL_POPCNT_CLONES void GateSim::evalCountingToggles() {
  evalCombinational<true>();
}

// The cold path for operators on nets wider than 64 bits (no bundled
// architecture has one): the arbitrary-width reference, as XSIM's
// interpreter evaluates it.
std::uint64_t GateSim::evalReference(std::size_t i) {
  const Program& p = prog_;
  const Program::RefNode& ref = p.refs[p.a[i]];
  const unsigned width = p.w[i];
  std::vector<BitVector> in;
  for (std::uint32_t k = p.x[i]; k < p.y[i]; ++k)
    in.push_back(BitVector::fromWords(p.args[k].second,
                                      values_.data() + p.args[k].first));
  BitVector r;
  switch (ref.kind) {
    case NodeKind::Unary:
      r = rtl::applyUnOp(rtl::UnOp(ref.op), in[0]);
      break;
    case NodeKind::Binary:
      r = rtl::applyBinOp(rtl::BinOp(ref.op), in[0], in[1]);
      break;
    case NodeKind::AddSub:
      r = in[2].isZero() ? in[0].add(in[1]) : in[0].sub(in[1]);
      break;
    case NodeKind::Mux:
      r = in[0].isZero() ? in[2] : in[1];
      break;
    case NodeKind::Slice:
      r = in[0].slice(ref.hi, ref.lo);
      break;
    case NodeKind::Concat:
      r = in[0];
      for (std::size_t k = 1; k < in.size(); ++k) r = r.concat(in[k]);
      break;
    case NodeKind::ZExt:
      r = in[0].zext(width);
      break;
    case NodeKind::SExt:
      r = in[0].sext(width);
      break;
    case NodeKind::Trunc:
      r = in[0].trunc(width);
      break;
    case NodeKind::IToF:
      r = rtl::intToFloat(in[0], width);
      break;
    case NodeKind::FToI:
      r = rtl::floatToInt(in[0], width);
      break;
    default:
      break;  // never lowered to Reference
  }
  std::vector<std::uint64_t> words(wordsFor(width));
  toWords(r, width, words.data());
  return moveWords<true>(values_.data() + p.dst[i], words.data(),
                         wordsFor(width));
}

// Sequential commit, two-phase: every enable, next value, address and datum
// is sampled before anything is written; write ports commit in port order,
// so the later of two ports to one address wins.
void GateSim::commit() {
  std::uint64_t* const v = values_.data();
  std::uint64_t* sample = regSample_.data();
  for (std::size_t k = 0; k < regs_.size(); ++k) {
    const RegCommit& r = regs_[k];
    regFired_[k] = r.enableWords == 0 || anySet(v + r.enable, r.enableWords);
    if (regFired_[k]) moveWords<false>(sample, v + r.next, r.words);
    sample += r.words;
  }
  sample = portSample_.data();
  for (std::size_t k = 0; k < ports_.size(); ++k) {
    const PortCommit& port = ports_[k];
    const Mem& m = memInfo_[port.mem];
    portFired_[k] = anySet(v + port.enable, port.enableWords);
    if (portFired_[k]) {
      portAddr_[k] = v[port.addr] % m.depth;
      moveWords<false>(sample, v + port.data, m.words);
    }
    sample += m.words;
  }

  sample = regSample_.data();
  for (std::size_t k = 0; k < regs_.size(); ++k) {
    if (regFired_[k])
      moveWords<false>(v + regs_[k].dst, sample, regs_[k].words);
    sample += regs_[k].words;
  }
  sample = portSample_.data();
  for (std::size_t k = 0; k < ports_.size(); ++k) {
    const Mem& m = memInfo_[ports_[k].mem];
    if (portFired_[k])
      moveWords<false>(mems_.data() + m.base + portAddr_[k] * m.words, sample,
                       m.words);
    sample += m.words;
  }
}

ISDL_HOT_ALIGN void GateSim::step() {
  if (!constsLoaded_) loadConsts();
  if (countToggles_)
    evalCountingToggles();
  else
    evalCombinational<false>();
  commit();
  ++clocks_;
}

ISDL_HOT_ALIGN bool GateSim::runUntil(NetId stopNet,
                                      std::uint64_t maxClocks) {
  const std::uint64_t* stop = values_.data() + offset_[stopNet];
  const std::uint32_t words = wordsOf(stopNet);
  for (std::uint64_t i = 0; i < maxClocks; ++i) {
    step();
    if (anySet(stop, words)) return true;
  }
  return false;
}

}  // namespace isdl::synth
