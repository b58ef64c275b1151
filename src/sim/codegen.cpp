#include "sim/codegen.h"

#include <sstream>

#include "sim/uop.h"
#include "support/strings.h"

namespace isdl::sim {

namespace {

using rtl::Expr;
using rtl::ExprKind;
using rtl::StmtKind;

/// The text of rtl/narrow_alu.h, which every generated source embeds.
constexpr const char kNarrowAluSource[] =
#include "narrow_alu_text.inc"
    ;

/// C++ text of `v` as a narrow value (narrow::Val).
std::string valLit(const BitVector& v) {
  return cat("Val{0x", v.toHexString().substr(2), "ull, ", v.width(), "}");
}

/// Generates the C++ expression text, of type narrow::Val, for a
/// width-checked RTL expression with the decoded parameter values folded in
/// as constants. Every operator is a call into the embedded narrow ALU.
class ExprGen {
 public:
  ExprGen(const Machine& m, const std::vector<Param>& params,
          const std::vector<DecodedParam>& dparams)
      : m_(m), params_(&params), dparams_(&dparams) {}

  std::string gen(const Expr& e) const {
    auto op = [&](std::size_t i) { return gen(*e.operands[i]); };
    switch (e.kind) {
      case ExprKind::Const:
        return valLit(e.constant);

      case ExprKind::Param: {
        const Param& p = (*params_)[e.paramIndex];
        const DecodedParam& dp = (*dparams_)[e.paramIndex];
        if (p.kind == ParamKind::Token) return valLit(dp.encoded);
        // Non-terminal: inline the selected option's value expression.
        const NtOption& opt =
            m_.nonTerminals[p.index].options[dp.ntOption];
        ExprGen sub(m_, opt.params, dp.sub);
        return sub.gen(*opt.value);
      }

      case ExprKind::Read:
        return cat("Val{s", e.storageIndex, "[0], ", e.width, "}");

      case ExprKind::ReadElem:
        return cat("Val{s", e.storageIndex, "[", op(0), ".v % ",
                   m_.storages[e.storageIndex].depth, "ull], ", e.width, "}");

      case ExprKind::Slice:
        return cat("slice(", op(0), ", ", e.sliceHi, ", ", e.sliceLo, ")");
      case ExprKind::Unary:
        return cat("unOp(UnOp(", int(e.unOp), "), ", op(0), ")");
      case ExprKind::Binary:
        return cat("binOp(BinOp(", int(e.binOp), "), ", op(0), ", ", op(1),
                   ")");
      case ExprKind::Ternary:
        return cat("(", op(0), ".v ? ", op(1), " : ", op(2), ")");

      case ExprKind::ZExt: return cat("zext(", op(0), ", ", e.extWidth, ")");
      case ExprKind::SExt: return cat("sext(", op(0), ", ", e.extWidth, ")");
      case ExprKind::Trunc: return cat("trunc(", op(0), ", ", e.extWidth, ")");
      case ExprKind::IToF: return cat("itof(", op(0), ", ", e.extWidth, ")");
      case ExprKind::FToI: return cat("ftoi(", op(0), ", ", e.extWidth, ")");

      case ExprKind::Concat: {
        // Most-significant operand first.
        std::string out = op(0);
        for (std::size_t i = 1; i < e.operands.size(); ++i)
          out = cat("concat(", out, ", ", op(i), ")");
        return out;
      }

      case ExprKind::Carry: return cat("carry(", op(0), ", ", op(1), ")");
      case ExprKind::Overflow:
        return cat("overflow(", op(0), ", ", op(1), ")");
      case ExprKind::Borrow: return cat("borrow(", op(0), ", ", op(1), ")");
    }
    return "Val{}";
  }

 private:
  const Machine& m_;
  const std::vector<Param>* params_;
  const std::vector<DecodedParam>* dparams_;
};

/// Generates the statement bodies of one instruction with two-phase
/// semantics: collectOp() evaluates RHS values / guards / addresses into
/// temporaries (reads see the pre-phase state), commit() then performs the
/// assignments. Actions of all fields form one phase; side effects form a
/// second one that observes the committed action results.
class InstGen {
 public:
  InstGen(const Machine& m, std::ostringstream& os) : m_(m), os_(os) {}

  void collectOp(const std::vector<rtl::StmtPtr>& stmts,
                 const std::vector<Param>& params,
                 const std::vector<DecodedParam>& dparams) {
    ExprGen eg(m_, params, dparams);
    collect(stmts, params, dparams, eg, "");
  }

  void commit() {
    for (const auto& wr : writes_) {
      std::string assign;
      if (wr.hasSlice) {
        std::uint64_t keep = ~0ull;
        for (unsigned b = wr.sliceLo; b <= wr.sliceHi; ++b)
          keep &= ~(1ull << b);
        assign = cat(wr.target, " = ((", wr.target, " & 0x",
                     BitVector(64, keep).toHexString().substr(2), "ull) | (",
                     wr.valueVar, " << ", wr.sliceLo, "));");
      } else {
        assign = cat(wr.target, " = ", wr.valueVar, ";");
      }
      if (wr.isPc) assign += " pcWritten = true;";
      if (wr.guard.empty())
        os_ << "      " << assign << "\n";
      else
        os_ << "      if (" << wr.guard << ") { " << assign << " }\n";
    }
    writes_.clear();
  }

 private:
  struct Write {
    std::string guard;   // C++ condition or empty
    std::string target;  // assignable lvalue text
    unsigned sliceHi = 0, sliceLo = 0;
    bool hasSlice = false;
    std::string valueVar;
    bool isPc = false;
  };

  const Machine& m_;
  std::ostringstream& os_;
  unsigned tmp_ = 0;
  std::vector<Write> writes_;

  void collect(const std::vector<rtl::StmtPtr>& stmts,
               const std::vector<Param>& params,
               const std::vector<DecodedParam>& dparams, const ExprGen& eg,
               const std::string& guard) {
    for (const auto& stmt : stmts) {
      switch (stmt->kind) {
        case StmtKind::Assign: {
          Write wr;
          wr.guard = guard;
          resolveTarget(stmt->dest, params, dparams, eg, wr);
          std::string v = cat("v", tmp_++);
          os_ << "      uint64_t " << v << " = " << eg.gen(*stmt->value)
              << ".v;\n";
          wr.valueVar = v;
          writes_.push_back(std::move(wr));
          break;
        }
        case StmtKind::If: {
          std::string c = cat("c", tmp_++);
          os_ << "      uint64_t " << c << " = " << eg.gen(*stmt->cond)
              << ".v;\n";
          std::string thenGuard =
              guard.empty() ? cat("(", c, " != 0)")
                            : cat(guard, " && (", c, " != 0)");
          std::string elseGuard =
              guard.empty() ? cat("(", c, " == 0)")
                            : cat(guard, " && (", c, " == 0)");
          collect(stmt->thenStmts, params, dparams, eg, thenGuard);
          collect(stmt->elseStmts, params, dparams, eg, elseGuard);
          break;
        }
      }
    }
  }

  void resolveTarget(const rtl::Lvalue& lv, const std::vector<Param>& params,
                     const std::vector<DecodedParam>& dparams,
                     const ExprGen& eg, Write& wr) {
    if (lv.isParam) {
      const Param& p = params[lv.paramIndex];
      const DecodedParam& dp = dparams[lv.paramIndex];
      const NtOption& opt = m_.nonTerminals[p.index].options[dp.ntOption];
      ExprGen sub(m_, opt.params, dp.sub);
      resolveTarget(*opt.lvalue, opt.params, dp.sub, sub, wr);
      return;
    }
    const StorageDef& st = m_.storages[lv.storageIndex];
    wr.isPc = static_cast<int>(lv.storageIndex) == m_.pcIndex;
    std::string index = "0";
    if (lv.index) {
      std::string a = cat("a", tmp_++);
      os_ << "      uint64_t " << a << " = " << eg.gen(*lv.index) << ".v % "
          << st.depth << "ull;\n";
      index = a;
    }
    wr.target = cat("s", lv.storageIndex, "[", index, "]");
    wr.hasSlice = lv.hasSlice;
    wr.sliceHi = lv.sliceHi;
    wr.sliceLo = lv.sliceLo;
  }
};

}  // namespace

std::string generateCompiledSim(const Machine& m, const SignatureTable& sigs,
                                const AssembledProgram& prog,
                                const CodegenOptions& options) {
  // Generated code holds every value in 64 bits: the storages (except the
  // instruction memory, which compiled execution never touches) and every
  // value the operations compute, which the micro-op compiler's
  // narrow-width proof bounds.
  for (const auto& st : m.storages) {
    if (st.width > 64 && st.kind != StorageKind::InstructionMemory)
      throw IsdlError(cat("compiled-code simulation does not support ",
                          st.width, "-bit storage '", st.name, "'"));
  }
  if (!uop::UopTable(m).narrow())
    throw IsdlError("compiled-code simulation does not support values wider "
                    "than 64 bits");

  Disassembler disasm(sigs);
  DecodedProgram decoded = disasm.decodeProgram(prog.words,
                                                prog.words.size());

  std::ostringstream os;
  os << "// Compiled-code simulator generated by GENSIM for machine '"
     << m.name << "'.\n";
  os << "#include <cstdint>\n#include <cstdio>\n#include <cstring>\n";
  os << "#include <chrono>\n";
  os << kNarrowAluSource;
  os << "using namespace isdl::narrow;\nusing std::uint64_t;\n";

  // State arrays (instruction memory is not needed at run time).
  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    if (static_cast<int>(si) == m.imemIndex) continue;
    os << "static uint64_t s" << si << "[" << m.storages[si].depth
       << "];\n";
  }

  os << "\nint main() {\n";
  os << "  uint64_t cycles = 0, instructions = 0;\n";
  os << "  auto t0 = std::chrono::steady_clock::now();\n";
  os << "  for (uint64_t rep = 0; rep < " << options.repeats
     << "ull; ++rep) {\n";
  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    if (static_cast<int>(si) == m.imemIndex) continue;
    os << "  std::memset(s" << si << ", 0, sizeof s" << si << ");\n";
  }
  // Data-memory init records.
  const int dmIndex = m.dataMemoryIndex();
  for (const auto& [addr, value] : prog.dataInit)
    os << "  s" << dmIndex << "[" << addr << "] = 0x"
       << value.toHexString().substr(2) << "ull;\n";

  os << "  uint64_t pc = 0;\n";
  os << "  bool halted = false;\n";
  os << "  while (!halted && cycles < " << options.maxCycles << "ull) {\n";
  os << "    bool pcWritten = false;\n";
  os << "    switch (pc) {\n";

  for (std::uint64_t addr = 0; addr < decoded.byAddress.size(); ++addr) {
    const DecodedInstruction& inst = decoded.byAddress[addr];
    if (inst.sizeWords == 0) continue;
    os << "    case " << addr << "ull: { // "
       << disasm.render(inst) << "\n";
    InstGen ig(m, os);
    const bool isHalt =
        m.haltOp && inst.ops[m.haltOp->fieldIndex].opIndex == m.haltOp->opIndex;
    // All reads (actions and side effects) see the pre-cycle state; commits
    // happen afterwards, side-effect writes last (matching XSIM and the
    // hardware model).
    for (std::size_t f = 0; f < inst.ops.size(); ++f) {
      const Operation& op = m.fields[f].operations[inst.ops[f].opIndex];
      ig.collectOp(op.action, op.params, inst.ops[f].params);
    }
    for (std::size_t f = 0; f < inst.ops.size(); ++f) {
      const Operation& op = m.fields[f].operations[inst.ops[f].opIndex];
      ig.collectOp(op.sideEffects, op.params, inst.ops[f].params);
      for (std::size_t p = 0; p < op.params.size(); ++p) {
        if (op.params[p].kind != ParamKind::NonTerminal) continue;
        const DecodedParam& dp = inst.ops[f].params[p];
        const NtOption& opt =
            m.nonTerminals[op.params[p].index].options[dp.ntOption];
        ig.collectOp(opt.sideEffects, opt.params, dp.sub);
      }
    }
    ig.commit();
    os << "      cycles += " << inst.cycles << "; ++instructions;\n";
    os << "      if (!pcWritten) s" << m.pcIndex << "[0] = " << addr << " + "
       << inst.sizeWords << ";\n";
    os << "      pc = s" << m.pcIndex << "[0];\n";
    if (isHalt) os << "      halted = true;\n";
    os << "      break;\n    }\n";
  }
  os << "    default: std::printf(\"trap: illegal pc %llu\\n\", "
        "(unsigned long long)pc); return 2;\n";
  os << "    }\n  }\n";
  os << "  }\n";  // repeats
  os << "  auto dt = std::chrono::duration<double>("
        "std::chrono::steady_clock::now() - t0).count();\n";
  os << "  std::printf(\"cycles %llu\\n\", (unsigned long long)cycles);\n";
  os << "  std::printf(\"instructions %llu\\n\", (unsigned long long)"
        "instructions);\n";
  os << "  std::printf(\"seconds %.6f\\n\", dt);\n";
  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    if (static_cast<int>(si) == m.imemIndex) continue;
    os << "  for (uint64_t e = 0; e < " << m.storages[si].depth
       << "; ++e) if (s" << si << "[e]) std::printf(\""
       << m.storages[si].name
       << " %llu %llx\\n\", (unsigned long long)e, (unsigned long long)s"
       << si << "[e]);\n";
  }
  os << "  return 0;\n}\n";
  return os.str();
}

}  // namespace isdl::sim
