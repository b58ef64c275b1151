#include "hw/datapath.h"

#include <algorithm>

#include "hw/decode.h"
#include "isdl/sema.h"
#include "support/strings.h"

namespace isdl::hw {

namespace {

using rtl::BinOp;
using rtl::Expr;
using rtl::ExprKind;
using rtl::Stmt;
using rtl::StmtKind;
using rtl::UnOp;

bool isShareableBinOp(BinOp op) {
  switch (op) {
    case BinOp::Add: case BinOp::Sub: case BinOp::Mul:
    case BinOp::UDiv: case BinOp::SDiv: case BinOp::URem: case BinOp::SRem:
    case BinOp::Shl: case BinOp::LShr: case BinOp::AShr:
    case BinOp::FAdd: case BinOp::FSub: case BinOp::FMul: case BinOp::FDiv:
      return true;
    default:
      return false;  // bitwise/compare gates are cheap; sharing buys nothing
  }
}

class Builder {
 public:
  Builder(const Machine& m, const sim::SignatureTable& sigs)
      : m_(m), sigs_(sigs) {}

  HwModel build() {
    lowerStorage();
    fetch();
    decodeAll();
    // Actions first, then side effects, matching the simulator's phase
    // ordering so that conflicting writes resolve identically (side effects
    // override actions).
    for (std::size_t f = 0; f < m_.fields.size(); ++f)
      for (std::size_t o = 0; o < m_.fields[f].operations.size(); ++o)
        lowerOperation(static_cast<unsigned>(f), static_cast<unsigned>(o),
                       /*sideEffects=*/false);
    for (std::size_t f = 0; f < m_.fields.size(); ++f)
      for (std::size_t o = 0; o < m_.fields[f].operations.size(); ++o)
        lowerOperation(static_cast<unsigned>(f), static_cast<unsigned>(o),
                       /*sideEffects=*/true);
    finalizeControl();
    finalizeWrites();
    for (std::size_t id = 0; id < tagOf_.size(); ++id)
      if (tagOf_[id].field < kSeveralOps)
        model_.operatorTags.emplace_back(static_cast<NetId>(id), tagOf_[id]);
    return std::move(model_);
  }

 private:
  const Machine& m_;
  const sim::SignatureTable& sigs_;
  HwModel model_;
  Netlist& nl() { return model_.netlist; }

  /// Parameter value nets (encoded values): every operation's, then those of
  /// each non-terminal option context as lowering opens it.
  std::vector<NetId> paramNets_;
  /// paramBase_[f][o]: where operation (f, o)'s nets start in paramNets_.
  std::vector<std::vector<std::size_t>> paramBase_;
  /// Accumulated write requests, applied in emission order (later wins).
  struct WriteRec {
    unsigned storage;
    NetId enable;
    NetId addr;  // kNoNet for non-addressed kinds
    bool hasSlice = false;
    unsigned hi = 0, lo = 0;
    NetId data;
  };
  std::vector<WriteRec> writes_;

  NetId runEnable_ = kNoNet;  ///< ~halted: gates every architectural write
  unsigned curStmt_ = 0;
  unsigned curField_ = 0, curOp_ = 0;

  /// Lowering context: the current operation's or (recursively) non-terminal
  /// option's parameters, whose value nets start at paramNets_[firstNet].
  struct Ctx {
    const std::vector<Param>* params;
    std::size_t firstNet;
  };
  NetId paramNet(const Ctx& ctx, std::size_t i) const {
    return paramNets_[ctx.firstNet + i];
  }

  /// The context of option `opt` (signature `sig`) of a non-terminal whose
  /// encoded value is `raw`: its parameters extracted from `raw`.
  Ctx optionCtx(const NtOption& opt, const sim::Signature& sig, NetId raw) {
    const Ctx ctx{&opt.params, paramNets_.size()};
    for (std::size_t q = 0; q < opt.params.size(); ++q)
      paramNets_.push_back(
          buildParamExtract(nl(), raw, sig, static_cast<unsigned>(q)));
    return ctx;
  }

  /// Names `net` by concatenating `parts`, unless a lowering that built it
  /// first named it already; the string is built only when it lands.
  template <typename... Parts>
  void nameNet(NetId net, const Parts&... parts) {
    if (std::string& name = nl().nodes[net].name; name.empty())
      name = cat(parts...);
  }

  /// The operation that tagged each net, indexed by net. A net lowered by
  /// two different operations is live in both, so the sharing rules'
  /// per-operation exclusivity does not hold for it: it is marked
  /// kSeveralOps and gets no tag (it is already shared, for free).
  static constexpr unsigned kUntagged = ~0u, kSeveralOps = ~0u - 1;
  std::vector<OpTag> tagOf_;

  void tagOperator(NetId id) {
    if (tagOf_.size() <= static_cast<std::size_t>(id))
      tagOf_.resize(id + 1, OpTag{kUntagged});
    OpTag& tag = tagOf_[id];
    if (tag.field == kUntagged)
      tag = {curField_, curOp_, curStmt_};
    else if (tag.field != curField_ || tag.op != curOp_)
      tag.field = kSeveralOps;
  }

  // --- storage -----------------------------------------------------------------
  void lowerStorage() {
    model_.storage.resize(m_.storages.size());
    for (std::size_t si = 0; si < m_.storages.size(); ++si) {
      const StorageDef& st = m_.storages[si];
      auto& map = model_.storage[si];
      if (isAddressed(st.kind)) {
        map.isMem = true;
        map.mem = nl().addMemory(st.name, st.width, st.depth);
      } else {
        map.reg = nl().addReg(st.name, st.width);
      }
    }
    model_.pcReg = model_.storage[m_.pcIndex].reg;
  }

  // --- fetch --------------------------------------------------------------------
  void fetch() {
    const unsigned words = m_.maxSizeWords();
    int imem = model_.storage[m_.imemIndex].mem;
    NetId pc = model_.pcReg;
    std::vector<NetId> parts;  // msb first
    for (unsigned k = words; k-- > 0;) {
      NetId addr = pc;
      if (k > 0) {
        NetId offset =
            nl().addConst(BitVector(nl().widthOf(pc), k));
        addr = nl().addBinary(BinOp::Add, pc, offset);
      }
      parts.push_back(nl().addMemRead(imem, addr));
      nameNet(parts.back(), "fetch", k);
    }
    model_.instNet = words == 1 ? parts[0]
                                : nl().addConcat(parts, "inst");
  }

  // --- decode --------------------------------------------------------------------
  void decodeAll() {
    model_.decodeLines.resize(m_.fields.size());
    paramBase_.resize(m_.fields.size());
    for (std::size_t f = 0; f < m_.fields.size(); ++f) {
      const Field& field = m_.fields[f];
      model_.decodeLines[f].resize(field.operations.size());
      paramBase_[f].resize(field.operations.size());
      for (std::size_t o = 0; o < field.operations.size(); ++o) {
        const Operation& op = field.operations[o];
        const sim::Signature& sig =
            sigs_.operation(static_cast<unsigned>(f), static_cast<unsigned>(o));
        const NetId line = buildDecodeLine(nl(), model_.instNet, sig);
        nameNet(line, "dec_", field.name, "_", op.name);
        model_.decodeLines[f][o] = line;
        paramBase_[f][o] = paramNets_.size();
        for (std::size_t p = 0; p < op.params.size(); ++p) {
          const NetId value = buildParamExtract(nl(), model_.instNet, sig,
                                                static_cast<unsigned>(p));
          nameNet(value, "par_", field.name, "_", op.name, "_",
                  op.params[p].name);
          paramNets_.push_back(value);
        }
      }
    }
  }

  // --- expression lowering ----------------------------------------------------------
  /// Mux chain over a non-terminal's options: result = per-option values
  /// selected by the option decode lines over the extracted return value.
  NetId lowerNtValue(const Param& p, NetId returnNet) {
    const NonTerminal& nt = m_.nonTerminals[p.index];
    NetId acc = kNoNet;
    for (std::size_t o = nt.options.size(); o-- > 0;) {
      const NtOption& opt = nt.options[o];
      const sim::Signature& sig =
          sigs_.ntOption(p.index, static_cast<unsigned>(o));
      NetId value = lowerExpr(*opt.value, optionCtx(opt, sig, returnNet));
      if (acc == kNoNet) {
        acc = value;  // lowest-priority (last) option needs no mux
      } else {
        NetId line = buildDecodeLine(nl(), returnNet, sig);
        acc = nl().addMux(line, value, acc);
      }
    }
    return acc;
  }

  NetId lowerExpr(const Expr& e, const Ctx& ctx) {
    switch (e.kind) {
      case ExprKind::Const:
        return nl().addConst(e.constant);

      case ExprKind::Param: {
        const Param& p = (*ctx.params)[e.paramIndex];
        NetId raw = paramNet(ctx, e.paramIndex);
        if (p.kind == ParamKind::Token) return raw;
        return lowerNtValue(p, raw);
      }

      case ExprKind::Read:
        return model_.storage[e.storageIndex].reg;

      case ExprKind::ReadElem: {
        NetId addr = lowerExpr(*e.operands[0], ctx);
        return nl().addMemRead(model_.storage[e.storageIndex].mem, addr);
      }

      case ExprKind::Slice:
        return nl().addSlice(lowerExpr(*e.operands[0], ctx), e.sliceHi,
                             e.sliceLo);

      case ExprKind::Unary:
        return nl().addUnary(e.unOp, lowerExpr(*e.operands[0], ctx));

      case ExprKind::Binary: {
        NetId a = lowerExpr(*e.operands[0], ctx);
        NetId b = lowerExpr(*e.operands[1], ctx);
        NetId out = nl().addBinary(e.binOp, a, b);
        if (isShareableBinOp(e.binOp)) tagOperator(out);
        return out;
      }

      case ExprKind::Ternary: {
        NetId sel = lowerExpr(*e.operands[0], ctx);
        NetId t = lowerExpr(*e.operands[1], ctx);
        NetId f = lowerExpr(*e.operands[2], ctx);
        return nl().addMux(sel, t, f);
      }

      case ExprKind::ZExt:
        return nl().addExt(NodeKind::ZExt, lowerExpr(*e.operands[0], ctx),
                           e.extWidth);
      case ExprKind::SExt:
        return nl().addExt(NodeKind::SExt, lowerExpr(*e.operands[0], ctx),
                           e.extWidth);
      case ExprKind::Trunc:
        return nl().addExt(NodeKind::Trunc, lowerExpr(*e.operands[0], ctx),
                           e.extWidth);

      case ExprKind::Concat: {
        std::vector<NetId> parts;
        for (const auto& opnd : e.operands)
          parts.push_back(lowerExpr(*opnd, ctx));
        return nl().addConcat(parts);
      }

      case ExprKind::Carry: {
        // carry(a, b) = (zext(a) + zext(b))[w]
        NetId a = lowerExpr(*e.operands[0], ctx);
        NetId b = lowerExpr(*e.operands[1], ctx);
        unsigned w = nl().widthOf(a);
        NetId sum = nl().addBinary(BinOp::Add,
                                   nl().addExt(NodeKind::ZExt, a, w + 1),
                                   nl().addExt(NodeKind::ZExt, b, w + 1));
        tagOperator(sum);
        return nl().addSlice(sum, w, w);
      }

      case ExprKind::Overflow: {
        // ov = (a[msb] == b[msb]) & (s[msb] != a[msb])
        NetId a = lowerExpr(*e.operands[0], ctx);
        NetId b = lowerExpr(*e.operands[1], ctx);
        unsigned msb = nl().widthOf(a) - 1;
        NetId sum = nl().addBinary(BinOp::Add, a, b);
        tagOperator(sum);
        NetId sa = nl().addSlice(a, msb, msb);
        NetId sb = nl().addSlice(b, msb, msb);
        NetId ss = nl().addSlice(sum, msb, msb);
        NetId same = nl().notNet(nl().addBinary(BinOp::Xor, sa, sb));
        NetId diff = nl().addBinary(BinOp::Xor, ss, sa);
        return nl().andNet(same, diff);
      }

      case ExprKind::Borrow: {
        // borrow(a, b) = a <u b
        NetId a = lowerExpr(*e.operands[0], ctx);
        NetId b = lowerExpr(*e.operands[1], ctx);
        NetId out = nl().addBinary(BinOp::ULt, a, b);
        return out;
      }

      case ExprKind::IToF: {
        NetId out = nl().addExt(NodeKind::IToF,
                                lowerExpr(*e.operands[0], ctx), e.extWidth);
        tagOperator(out);
        return out;
      }
      case ExprKind::FToI: {
        NetId out = nl().addExt(NodeKind::FToI,
                                lowerExpr(*e.operands[0], ctx), e.extWidth);
        tagOperator(out);
        return out;
      }
    }
    throw IsdlError("bad expression kind in hardware lowering");
  }

  // --- statement lowering --------------------------------------------------------------
  void lowerLvalueWrite(const rtl::Lvalue& lv, const Ctx& ctx, NetId enable,
                        NetId data) {
    if (lv.isParam) {
      const Param& p = (*ctx.params)[lv.paramIndex];
      const NonTerminal& nt = m_.nonTerminals[p.index];
      NetId raw = paramNet(ctx, lv.paramIndex);
      // One guarded write per option: enable AND option-select line.
      for (std::size_t o = 0; o < nt.options.size(); ++o) {
        const NtOption& opt = nt.options[o];
        if (!opt.lvalue) continue;
        const sim::Signature& sig =
            sigs_.ntOption(p.index, static_cast<unsigned>(o));
        NetId line = buildDecodeLine(nl(), raw, sig);
        const Ctx optCtx = optionCtx(opt, sig, raw);
        lowerLvalueWrite(*opt.lvalue, optCtx, nl().andNet(enable, line),
                         data);
      }
      return;
    }
    WriteRec rec;
    rec.storage = lv.storageIndex;
    rec.enable = enable;
    rec.addr = lv.index ? lowerExpr(*lv.index, ctx) : kNoNet;
    rec.hasSlice = lv.hasSlice;
    rec.hi = lv.sliceHi;
    rec.lo = lv.sliceLo;
    rec.data = data;
    writes_.push_back(rec);
  }

  void lowerStmts(const std::vector<rtl::StmtPtr>& stmts, const Ctx& ctx,
                  NetId enable) {
    for (const auto& stmt : stmts) {
      ++curStmt_;
      switch (stmt->kind) {
        case StmtKind::Assign: {
          NetId data = lowerExpr(*stmt->value, ctx);
          lowerLvalueWrite(stmt->dest, ctx, enable, data);
          break;
        }
        case StmtKind::If: {
          NetId cond = lowerExpr(*stmt->cond, ctx);
          lowerStmts(stmt->thenStmts, ctx, nl().andNet(enable, cond));
          if (!stmt->elseStmts.empty())
            lowerStmts(stmt->elseStmts, ctx,
                       nl().andNet(enable, nl().notNet(cond)));
          break;
        }
      }
    }
  }

  /// Option side effects (e.g. post-increment) for every non-terminal
  /// parameter of the current context, each guarded by its option line.
  void lowerOptionSideEffects(const Ctx& ctx, NetId enable) {
    for (std::size_t i = 0; i < ctx.params->size(); ++i) {
      const Param& p = (*ctx.params)[i];
      if (p.kind != ParamKind::NonTerminal) continue;
      const NonTerminal& nt = m_.nonTerminals[p.index];
      NetId raw = paramNet(ctx, i);
      for (std::size_t o = 0; o < nt.options.size(); ++o) {
        const NtOption& opt = nt.options[o];
        const sim::Signature& sig =
            sigs_.ntOption(p.index, static_cast<unsigned>(o));
        NetId line = buildDecodeLine(nl(), raw, sig);
        const Ctx optCtx = optionCtx(opt, sig, raw);
        NetId optEnable = nl().andNet(enable, line);
        lowerStmts(opt.sideEffects, optCtx, optEnable);
        lowerOptionSideEffects(optCtx, optEnable);
      }
    }
  }

  void lowerOperation(unsigned f, unsigned o, bool sideEffects) {
    curField_ = f;
    curOp_ = o;
    curStmt_ = 0;
    const Operation& op = m_.fields[f].operations[o];
    NetId enable = model_.decodeLines[f][o];
    const Ctx ctx{&op.params, paramBase_[f][o]};
    if (!sideEffects) {
      lowerStmts(op.action, ctx, enable);
    } else {
      lowerStmts(op.sideEffects, ctx, enable);
      lowerOptionSideEffects(ctx, enable);
    }
  }

  // --- control: halt, illegal, PC, cost counters ------------------------------------------
  /// Per-field net (width `width`) selected by the field's decode lines via
  /// `perOp(o)` constants; defaults to operation 0's value.
  NetId muxOverOps(unsigned f, unsigned width,
                   const std::function<std::uint64_t(unsigned)>& perOp) {
    const Field& field = m_.fields[f];
    NetId acc = nl().addConst(BitVector(width, perOp(0)));
    for (std::size_t o = 1; o < field.operations.size(); ++o) {
      NetId v = nl().addConst(
          BitVector(width, perOp(static_cast<unsigned>(o))));
      acc = nl().addMux(model_.decodeLines[f][o], v, acc);
    }
    return acc;
  }

  /// Dynamic per-field cycle cost: the operation's base cycle cost plus the
  /// selected options' extras.
  NetId fieldCycleNet(unsigned f) {
    const Field& field = m_.fields[f];
    // Base costs via decode-line mux.
    NetId acc = muxOverOps(
        f, 8, [&](unsigned o) { return field.operations[o].costs.cycle; });
    // Option extras: for each op with non-terminal params whose options add
    // cycles, add a mux of the extras gated by the op's decode line.
    for (std::size_t o = 0; o < field.operations.size(); ++o) {
      const Operation& op = field.operations[o];
      for (std::size_t p = 0; p < op.params.size(); ++p) {
        if (op.params[p].kind != ParamKind::NonTerminal) continue;
        const NonTerminal& nt = m_.nonTerminals[op.params[p].index];
        bool anyExtra = false;
        for (const auto& opt : nt.options)
          if (opt.extraCosts.cycle) anyExtra = true;
        if (!anyExtra) continue;
        NetId raw = paramNets_[paramBase_[f][o] + p];
        NetId extra = nl().addConst(BitVector(8, 0));
        for (std::size_t q = 0; q < nt.options.size(); ++q) {
          if (!nt.options[q].extraCosts.cycle) continue;
          const sim::Signature& sig =
              sigs_.ntOption(op.params[p].index, static_cast<unsigned>(q));
          NetId line = buildDecodeLine(nl(), raw, sig);
          extra = nl().addMux(
              line, nl().addConst(BitVector(8, nt.options[q].extraCosts.cycle)),
              extra);
        }
        NetId gated = nl().addMux(model_.decodeLines[f][o], extra,
                                  nl().addConst(BitVector(8, 0)));
        acc = nl().addBinary(BinOp::Add, acc, gated);
      }
    }
    return acc;
  }

  NetId maxNet(NetId a, NetId b) {
    if (a == b) return a;  // no comparator for the mux to fold away
    NetId gt = nl().addBinary(BinOp::UGt, a, b);
    return nl().addMux(gt, a, b);
  }

  void finalizeControl() {
    // Halted latch.
    model_.haltedReg = nl().addReg("halted", 1);
    runEnable_ = nl().notNet(model_.haltedReg);

    const std::optional<OpRef>& halt = m_.haltOp;
    NetId haltNow = halt ? model_.decodeLines[halt->fieldIndex][halt->opIndex]
                         : nl().zero();
    nl().setRegInputs(model_.haltedReg,
                      nl().orNet(model_.haltedReg, haltNow), runEnable_);

    // Illegal-instruction flag: some field decodes no operation. The ORs
    // start from their first term, not from a constant 0 nothing reads.
    auto orInto = [&](NetId acc, NetId term) {
      return acc == kNoNet ? term : nl().orNet(acc, term);
    };
    NetId anyIllegal = kNoNet;
    for (std::size_t f = 0; f < m_.fields.size(); ++f) {
      NetId any = kNoNet;
      for (NetId line : model_.decodeLines[f]) any = orInto(any, line);
      anyIllegal =
          orInto(anyIllegal, any == kNoNet ? nl().one() : nl().notNet(any));
    }
    model_.illegalNet = anyIllegal == kNoNet ? nl().zero() : anyIllegal;

    // Instruction size and cycle cost (max over fields).
    NetId sizeNet = kNoNet;
    NetId cycleNet = kNoNet;
    for (std::size_t f = 0; f < m_.fields.size(); ++f) {
      NetId fs = muxOverOps(static_cast<unsigned>(f), 8, [&](unsigned o) {
        return m_.fields[f].operations[o].costs.size;
      });
      NetId fc = fieldCycleNet(static_cast<unsigned>(f));
      sizeNet = sizeNet == kNoNet ? fs : maxNet(sizeNet, fs);
      cycleNet = cycleNet == kNoNet ? fc : maxNet(cycleNet, fc);
    }

    // PC: default next = PC + size; branch writes (collected in writes_)
    // take priority in finalizeWrites().
    unsigned pcw = nl().widthOf(model_.pcReg);
    NetId sizeExt = pcw >= 8 ? nl().addExt(NodeKind::ZExt, sizeNet, pcw)
                             : nl().addSlice(sizeNet, pcw - 1, 0);
    pcDefault_ = nl().addBinary(BinOp::Add, model_.pcReg, sizeExt);

    // Architectural counters.
    model_.cycleCountReg = nl().addReg("cycle_count", 32);
    NetId cyc32 = nl().addExt(NodeKind::ZExt, cycleNet, 32);
    nl().setRegInputs(model_.cycleCountReg,
                      nl().addBinary(BinOp::Add, model_.cycleCountReg, cyc32),
                      runEnable_);
    model_.instrCountReg = nl().addReg("instr_count", 32);
    nl().setRegInputs(
        model_.instrCountReg,
        nl().addBinary(BinOp::Add, model_.instrCountReg,
                       nl().addConst(BitVector(32, 1))),
        runEnable_);

    nl().addOutput("halted", model_.haltedReg);
    nl().addOutput("illegal", model_.illegalNet);
    nl().addOutput("cycle_count", model_.cycleCountReg);
    nl().addOutput("instr_count", model_.instrCountReg);
    nl().addOutput("pc", model_.pcReg);
  }

  NetId pcDefault_ = kNoNet;

  void finalizeWrites() {
    // Registers: fold writers over the current value (PC over PC + size).
    for (std::size_t si = 0; si < m_.storages.size(); ++si) {
      const auto& map = model_.storage[si];
      if (map.isMem) continue;
      NetId acc = static_cast<int>(si) == m_.pcIndex ? pcDefault_ : map.reg;
      for (const auto& w : writes_) {
        if (w.storage != si) continue;
        NetId value =
            w.hasSlice ? nl().withSlice(acc, w.hi, w.lo, w.data) : w.data;
        acc = nl().addMux(w.enable, value, acc);
      }
      nl().setRegInputs(map.reg, acc, runEnable_);
    }
    // Memories: one write port per writer; slice writes read-modify-write.
    for (const auto& w : writes_) {
      const auto& map = model_.storage[w.storage];
      if (!map.isMem) continue;
      NetId data = w.data;
      if (w.hasSlice) {
        NetId old = nl().addMemRead(map.mem, w.addr);
        data = nl().withSlice(old, w.hi, w.lo, w.data);
      }
      nl().addMemWrite(map.mem, nl().andNet(w.enable, runEnable_), w.addr,
                       data);
    }
  }
};

}  // namespace

void remapModel(HwModel& model, const std::vector<NetId>& remap) {
  auto fix = [&](NetId& id) {
    if (id != kNoNet) id = remap[id];
  };
  for (auto& field : model.decodeLines)
    for (NetId& line : field) fix(line);
  fix(model.instNet);
  fix(model.haltedReg);
  fix(model.illegalNet);
  fix(model.cycleCountReg);
  fix(model.instrCountReg);
  fix(model.pcReg);
  for (auto& st : model.storage) fix(st.reg);
  auto& tags = model.operatorTags;
  std::size_t kept = 0;
  for (const auto& [net, tag] : tags)
    if (remap[net] != kNoNet) tags[kept++] = {remap[net], tag};
  tags.resize(kept);
  std::ranges::sort(tags, {}, &std::pair<NetId, OpTag>::first);
}

HwModel buildDatapath(const Machine& machine,
                      const sim::SignatureTable& sigs) {
  HwModel model = Builder(machine, sigs).build();
  remapModel(model, model.netlist.sweepDead());
  return model;
}

}  // namespace isdl::hw
