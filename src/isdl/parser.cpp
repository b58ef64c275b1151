#include "isdl/parser.h"

#include <algorithm>
#include <cassert>

#include "isdl/lexer.h"
#include "isdl/sema.h"
#include "support/strings.h"

namespace isdl {

namespace {

/// Thrown internally to abort the parse after the first syntax error; callers
/// of parseIsdl see a nullptr plus diagnostics.
struct ParseAbort {};

/// The infix operators of RTL expressions, loosest-binding level first.
struct InfixOp {
  Tok tok;
  rtl::BinOp op;
  int level;
};
constexpr InfixOp kInfix[] = {
    {Tok::PipePipe, rtl::BinOp::LogOr, 0},
    {Tok::AmpAmp, rtl::BinOp::LogAnd, 1},
    {Tok::Pipe, rtl::BinOp::Or, 2},
    {Tok::Caret, rtl::BinOp::Xor, 3},
    {Tok::Amp, rtl::BinOp::And, 4},
    {Tok::EqEq, rtl::BinOp::Eq, 5},   {Tok::BangEq, rtl::BinOp::Ne, 5},
    {Tok::Lt, rtl::BinOp::ULt, 6},    {Tok::Le, rtl::BinOp::ULe, 6},
    {Tok::Gt, rtl::BinOp::UGt, 6},    {Tok::Ge, rtl::BinOp::UGe, 6},
    {Tok::Shl, rtl::BinOp::Shl, 7},   {Tok::Shr, rtl::BinOp::LShr, 7},
    {Tok::AShr, rtl::BinOp::AShr, 7},
    {Tok::Plus, rtl::BinOp::Add, 8},  {Tok::Minus, rtl::BinOp::Sub, 8},
    {Tok::Star, rtl::BinOp::Mul, 9},  {Tok::Slash, rtl::BinOp::UDiv, 9},
    {Tok::Percent, rtl::BinOp::URem, 9},
};

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, DiagnosticEngine& diags)
      : toks_(tokens), diags_(diags) {}

  std::unique_ptr<Machine> run() {
    machine_ = std::make_unique<Machine>();
    expectIdent("machine");
    machine_->name = expect(Tok::Identifier).text;
    expect(Tok::LBrace);
    while (!check(Tok::RBrace)) parseSection();
    expect(Tok::RBrace);
    expect(Tok::EndOfFile);
    return std::move(machine_);
  }

 private:
  const std::vector<Token>& toks_;
  DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  std::unique_ptr<Machine> machine_;

  /// Parameters of the operation/option currently being parsed (for RTL and
  /// encode resolution); null outside those contexts.
  const std::vector<Param>* paramScope_ = nullptr;

  // --- token plumbing --------------------------------------------------------
  const Token& peek(std::size_t off = 0) const {
    std::size_t i = pos_ + off;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ + 1 < toks_.size()) ++pos_;
    return t;
  }
  bool check(Tok k) const { return peek().is(k); }
  bool checkIdent(std::string_view s) const { return peek().isIdent(s); }
  bool accept(Tok k) {
    if (!check(k)) return false;
    advance();
    return true;
  }
  bool acceptIdent(std::string_view s) {
    if (!checkIdent(s)) return false;
    advance();
    return true;
  }

  [[noreturn]] void fail(SourceLoc loc, std::string msg) {
    diags_.error(loc, std::move(msg));
    throw ParseAbort{};
  }

  const Token& expect(Tok k) {
    if (!check(k))
      fail(peek().loc, cat("expected ", tokName(k), ", found ",
                           tokName(peek().kind),
                           peek().kind == Tok::Identifier
                               ? cat(" '", peek().text, "'")
                               : ""));
    return advance();
  }

  void expectIdent(std::string_view s) {
    if (!checkIdent(s))
      fail(peek().loc, cat("expected '", s, "', found ",
                           tokName(peek().kind),
                           peek().kind == Tok::Identifier
                               ? cat(" '", peek().text, "'")
                               : ""));
    advance();
  }

  std::uint64_t expectInt() {
    const Token& t = expect(Tok::Integer);
    return t.intValue;
  }

  unsigned expectSmallInt(const char* what, std::uint64_t max = 1u << 20) {
    SourceLoc loc = peek().loc;
    std::uint64_t v = expectInt();
    if (v > max) fail(loc, cat(what, " out of range (", v, " > ", max, ")"));
    return static_cast<unsigned>(v);
  }

  // --- sections -----------------------------------------------------------------
  void parseSection() {
    expectIdent("section");
    const Token& nameTok = expect(Tok::Identifier);
    std::string_view name = nameTok.text;
    expect(Tok::LBrace);
    if (name == "format") {
      parseFormatBody();
    } else if (name == "global_definitions") {
      parseGlobalBody();
    } else if (name == "storage") {
      parseStorageBody();
    } else if (name == "instruction_set") {
      parseInstructionSetBody();
    } else if (name == "constraints") {
      parseConstraintsBody();
    } else if (name == "optional") {
      parseOptionalBody();
    } else {
      fail(nameTok.loc,
           cat("unknown section '", name,
               "' (expected format, global_definitions, storage, "
               "instruction_set, constraints or optional)"));
    }
    expect(Tok::RBrace);
  }

  void parseFormatBody() {
    while (!check(Tok::RBrace)) {
      SourceLoc loc = peek().loc;
      expectIdent("word_width");
      expect(Tok::Assign);
      machine_->wordWidth = expectSmallInt("word_width", 4096);
      if (machine_->wordWidth == 0) fail(loc, "word_width must be > 0");
      expect(Tok::Semi);
    }
  }

  // --- global definitions ---------------------------------------------------------
  void parseGlobalBody() {
    while (!check(Tok::RBrace)) {
      if (checkIdent("token")) {
        parseTokenDef();
      } else if (checkIdent("nonterminal")) {
        parseNonTerminalDef();
      } else {
        fail(peek().loc, "expected 'token' or 'nonterminal'");
      }
    }
  }

  void checkFreshName(const Token& nameTok) {
    std::string_view n = nameTok.text;
    if (machine_->findToken(n) >= 0 || machine_->findNonTerminal(n) >= 0 ||
        machine_->findStorage(n) >= 0 || machine_->findAlias(n) >= 0)
      fail(nameTok.loc, cat("redefinition of '", n, "'"));
  }

  void parseTokenDef() {
    expectIdent("token");
    const Token& nameTok = expect(Tok::Identifier);
    checkFreshName(nameTok);
    TokenDef def;
    def.name = nameTok.text;
    if (acceptIdent("enum")) {
      def.kind = TokenKind::Enum;
      expectIdent("width");
      def.width = expectSmallInt("token width", 64);
      if (acceptIdent("prefix")) {
        // Shorthand: prefix "R" range 0 .. 15;
        std::string prefix(expect(Tok::String).text);
        expectIdent("range");
        std::uint64_t lo = expectInt();
        expect(Tok::DotDot);
        std::uint64_t hi = expectInt();
        if (hi < lo || hi - lo > 100000)
          fail(nameTok.loc, "bad token range");
        for (std::uint64_t v = lo; v <= hi; ++v)
          def.members.push_back({prefix + std::to_string(v), v});
        expect(Tok::Semi);
      } else {
        expect(Tok::LBrace);
        while (!check(Tok::RBrace)) {
          TokenMember m;
          m.syntax = expect(Tok::String).text;
          expect(Tok::Assign);
          m.value = expectInt();
          def.members.push_back(std::move(m));
          if (!accept(Tok::Comma)) break;
        }
        expect(Tok::RBrace);
        accept(Tok::Semi);
      }
      // Value-fits-width validation.
      for (const auto& m : def.members) {
        if (def.width < 64 && m.value >> def.width)
          fail(nameTok.loc, cat("token member '", m.syntax, "' value ",
                                m.value, " does not fit in ", def.width,
                                " bits"));
      }
    } else if (acceptIdent("immediate")) {
      def.kind = TokenKind::Immediate;
      if (acceptIdent("signed"))
        def.isSigned = true;
      else
        expectIdent("unsigned");
      expectIdent("width");
      def.width = expectSmallInt("token width", 64);
      expect(Tok::Semi);
    } else {
      fail(peek().loc, "expected 'enum' or 'immediate'");
    }
    if (def.width == 0) fail(nameTok.loc, "token width must be > 0");
    machine_->tokens.push_back(std::move(def));
  }

  void parseNonTerminalDef() {
    expectIdent("nonterminal");
    const Token& nameTok = expect(Tok::Identifier);
    checkFreshName(nameTok);
    NonTerminal nt;
    nt.name = nameTok.text;
    nt.loc = nameTok.loc;
    expectIdent("returns");
    expectIdent("width");
    nt.returnWidth = expectSmallInt("nonterminal return width", 4096);
    expect(Tok::LBrace);
    while (!check(Tok::RBrace)) nt.options.push_back(parseNtOption(nt));
    expect(Tok::RBrace);
    machine_->nonTerminals.push_back(std::move(nt));
  }

  NtOption parseNtOption(const NonTerminal& nt) {
    expectIdent("option");
    expect(Tok::Identifier);  // option name: diagnostic sugar only
    NtOption opt;
    opt.loc = peek().loc;
    opt.params = parseParamList();
    paramScope_ = &opt.params;
    expect(Tok::LBrace);
    bool sawSyntax = false;
    while (!check(Tok::RBrace)) {
      if (checkIdent("syntax")) {
        advance();
        opt.syntax = parseSyntaxItems(opt.params);
        sawSyntax = true;
      } else if (checkIdent("encode")) {
        advance();
        opt.encode = parseEncodeBlock(opt.params, /*isOption=*/true,
                                      nt.returnWidth);
      } else if (checkIdent("value")) {
        advance();
        expect(Tok::LBrace);
        opt.value = parseExpr();
        expect(Tok::RBrace);
      } else if (checkIdent("lvalue")) {
        advance();
        expect(Tok::LBrace);
        opt.lvalue = parseLvalue();
        expect(Tok::RBrace);
      } else if (checkIdent("side_effect")) {
        advance();
        opt.sideEffects = parseStmtBlock();
      } else if (checkIdent("costs")) {
        advance();
        opt.extraCosts = parseCosts({0, 0, 0});
      } else if (checkIdent("timing")) {
        advance();
        opt.extraTiming = parseTiming({0, 0});
      } else {
        fail(peek().loc, "expected an option part (syntax, encode, value, "
                         "lvalue, side_effect, costs, timing)");
      }
    }
    expect(Tok::RBrace);
    paramScope_ = nullptr;
    if (!sawSyntax) opt.syntax = defaultSyntax(opt.params);
    return opt;
  }

  // --- storage -----------------------------------------------------------------------
  void parseStorageBody() {
    while (!check(Tok::RBrace)) {
      if (checkIdent("alias")) {
        parseAliasDef();
        continue;
      }
      static const std::pair<const char*, StorageKind> kinds[] = {
          {"instruction_memory", StorageKind::InstructionMemory},
          {"data_memory", StorageKind::DataMemory},
          {"register_file", StorageKind::RegisterFile},
          {"register", StorageKind::Register},
          {"control_register", StorageKind::ControlRegister},
          {"memory_mapped_io", StorageKind::MemoryMappedIO},
          {"program_counter", StorageKind::ProgramCounter},
          {"stack", StorageKind::Stack},
      };
      const Token& kw = expect(Tok::Identifier);
      StorageDef def;
      def.loc = kw.loc;
      bool found = false;
      for (const auto& [name, kind] : kinds) {
        if (kw.text == name) {
          def.kind = kind;
          found = true;
          break;
        }
      }
      if (!found)
        fail(kw.loc, cat("unknown storage kind '", kw.text, "'"));
      const Token& nameTok = expect(Tok::Identifier);
      checkFreshName(nameTok);
      def.name = nameTok.text;
      expectIdent("width");
      def.width = expectSmallInt("storage width", 4096);
      if (def.width == 0) fail(nameTok.loc, "storage width must be > 0");
      if (isAddressed(def.kind)) {
        expectIdent("depth");
        def.depth = expectInt();
        if (def.depth == 0) fail(nameTok.loc, "storage depth must be > 0");
      } else {
        def.depth = 1;
      }
      expect(Tok::Semi);
      machine_->storages.push_back(std::move(def));
    }
  }

  void parseAliasDef() {
    expectIdent("alias");
    const Token& nameTok = expect(Tok::Identifier);
    checkFreshName(nameTok);
    AliasDef def;
    def.name = nameTok.text;
    def.loc = nameTok.loc;
    expect(Tok::Assign);
    const Token& target = expect(Tok::Identifier);
    int si = machine_->findStorage(target.text);
    if (si < 0) fail(target.loc, cat("unknown storage '", target.text, "'"));
    def.storageIndex = static_cast<unsigned>(si);
    const StorageDef& st = machine_->storages[def.storageIndex];
    if (isAddressed(st.kind)) {
      expect(Tok::LBracket);
      def.element = expectInt();
      expect(Tok::RBracket);
      if (*def.element >= st.depth)
        fail(target.loc, "alias element index out of range");
    }
    if (accept(Tok::LBracket)) {
      unsigned hi = expectSmallInt("slice bound", 4095);
      expect(Tok::Colon);
      unsigned lo = expectSmallInt("slice bound", 4095);
      expect(Tok::RBracket);
      if (hi < lo || hi >= st.width)
        fail(target.loc, "alias slice out of range");
      def.slice = {hi, lo};
    }
    expect(Tok::Semi);
    machine_->aliases.push_back(std::move(def));
  }

  // --- instruction set -----------------------------------------------------------------
  void parseInstructionSetBody() {
    while (!check(Tok::RBrace)) {
      expectIdent("field");
      const Token& nameTok = expect(Tok::Identifier);
      if (machine_->findField(nameTok.text) >= 0)
        fail(nameTok.loc, cat("redefinition of field '", nameTok.text, "'"));
      Field field;
      field.name = nameTok.text;
      field.loc = nameTok.loc;
      expect(Tok::LBrace);
      while (!check(Tok::RBrace))
        field.operations.push_back(parseOperation(field));
      expect(Tok::RBrace);
      machine_->fields.push_back(std::move(field));
    }
  }

  Operation parseOperation(const Field& field) {
    expectIdent("operation");
    const Token& nameTok = expect(Tok::Identifier);
    if (field.findOperation(nameTok.text) >= 0)
      fail(nameTok.loc, cat("redefinition of operation '", field.name, ".",
                            nameTok.text, "'"));
    Operation op;
    op.name = nameTok.text;
    op.loc = nameTok.loc;
    op.params = parseParamList();
    paramScope_ = &op.params;
    expect(Tok::LBrace);
    bool sawSyntax = false;
    while (!check(Tok::RBrace)) {
      if (checkIdent("syntax")) {
        advance();
        op.syntax = parseSyntaxItems(op.params);
        sawSyntax = true;
      } else if (checkIdent("encode")) {
        advance();
        op.encode = parseEncodeBlock(op.params, /*isOption=*/false, 0);
      } else if (checkIdent("action")) {
        advance();
        op.action = parseStmtBlock();
      } else if (checkIdent("side_effect")) {
        advance();
        op.sideEffects = parseStmtBlock();
      } else if (checkIdent("costs")) {
        advance();
        op.costs = parseCosts(op.costs);
      } else if (checkIdent("timing")) {
        advance();
        op.timing = parseTiming(op.timing);
      } else {
        fail(peek().loc, "expected an operation part (syntax, encode, "
                         "action, side_effect, costs, timing)");
      }
    }
    expect(Tok::RBrace);
    paramScope_ = nullptr;
    if (!sawSyntax) op.syntax = defaultSyntax(op.params);
    return op;
  }

  // --- constraints -----------------------------------------------------------------------
  void parseConstraintsBody() {
    while (!check(Tok::RBrace)) {
      expectIdent("never");
      Constraint c;
      c.loc = peek().loc;
      for (;;) {
        const Token& fieldTok = expect(Tok::Identifier);
        int fi = machine_->findField(fieldTok.text);
        if (fi < 0)
          fail(fieldTok.loc, cat("unknown field '", fieldTok.text, "'"));
        expect(Tok::Dot);
        const Token& opTok = expect(Tok::Identifier);
        int oi = machine_->fields[fi].findOperation(opTok.text);
        if (oi < 0)
          fail(opTok.loc, cat("unknown operation '", fieldTok.text, ".",
                              opTok.text, "'"));
        c.ops.push_back({static_cast<unsigned>(fi), static_cast<unsigned>(oi)});
        if (!c.text.empty()) c.text += " & ";
        c.text.append(fieldTok.text).append(".").append(opTok.text);
        if (!accept(Tok::Amp)) break;
      }
      expect(Tok::Semi);
      if (c.ops.size() < 2)
        fail(c.loc, "a constraint must list at least two operations");
      machine_->constraints.push_back(std::move(c));
    }
  }

  void parseOptionalBody() {
    while (!check(Tok::RBrace)) {
      const Token& key = expect(Tok::Identifier);
      expect(Tok::Assign);
      const Token& val = expect(Tok::String);
      expect(Tok::Semi);
      std::string name(key.text);
      machine_->optionalInfo[name] = val.text;
      machine_->optionalLocs[name] = val.loc;
    }
  }

  // --- shared pieces ------------------------------------------------------------------------
  std::vector<Param> parseParamList() {
    std::vector<Param> params;
    expect(Tok::LParen);
    if (!check(Tok::RParen)) {
      for (;;) {
        Param p;
        const Token& nameTok = expect(Tok::Identifier);
        p.name = nameTok.text;
        p.loc = nameTok.loc;
        for (const auto& existing : params)
          if (existing.name == p.name)
            fail(nameTok.loc, cat("duplicate parameter '", p.name, "'"));
        expect(Tok::Colon);
        const Token& typeTok = expect(Tok::Identifier);
        int ti = machine_->findToken(typeTok.text);
        int ni = machine_->findNonTerminal(typeTok.text);
        if (ti >= 0) {
          p.kind = ParamKind::Token;
          p.index = static_cast<unsigned>(ti);
        } else if (ni >= 0) {
          p.kind = ParamKind::NonTerminal;
          p.index = static_cast<unsigned>(ni);
        } else {
          fail(typeTok.loc,
               cat("unknown token or non-terminal '", typeTok.text, "'"));
        }
        params.push_back(std::move(p));
        if (!accept(Tok::Comma)) break;
      }
    }
    expect(Tok::RParen);
    return params;
  }

  static std::vector<SyntaxItem> defaultSyntax(
      const std::vector<Param>& params) {
    std::vector<SyntaxItem> items;
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i) items.push_back({true, ",", 0});
      items.push_back({false, "", static_cast<unsigned>(i)});
    }
    return items;
  }

  std::vector<SyntaxItem> parseSyntaxItems(const std::vector<Param>& params) {
    std::vector<SyntaxItem> items;
    while (!check(Tok::Semi)) {
      if (check(Tok::String)) {
        items.push_back({true, std::string(advance().text), 0});
      } else if (check(Tok::Identifier)) {
        const Token& t = advance();
        int pi = findParam(&params, t.text);
        if (pi < 0)
          fail(t.loc, cat("syntax item '", t.text,
                          "' is not a parameter (quote literals)"));
        items.push_back({false, "", static_cast<unsigned>(pi)});
      } else {
        fail(peek().loc, "expected string literal or parameter in syntax");
      }
    }
    expect(Tok::Semi);
    return items;
  }

  std::vector<EncodeAssign> parseEncodeBlock(const std::vector<Param>& params,
                                             bool isOption,
                                             unsigned returnWidth) {
    std::vector<EncodeAssign> assigns;
    expect(Tok::LBrace);
    while (!check(Tok::RBrace)) {
      EncodeAssign ea;
      ea.loc = peek().loc;
      if (isOption) {
        expect(Tok::Dollar2);
      } else {
        expectIdent("inst");
      }
      expect(Tok::LBracket);
      ea.hi = expectSmallInt("bit index", 4095);
      if (accept(Tok::Colon))
        ea.lo = expectSmallInt("bit index", 4095);
      else
        ea.lo = ea.hi;
      expect(Tok::RBracket);
      if (ea.hi < ea.lo) fail(ea.loc, "bitfield range must be [hi:lo]");
      if (isOption && ea.hi >= returnWidth)
        fail(ea.loc, cat("bit ", ea.hi, " exceeds non-terminal return width ",
                         returnWidth));
      expect(Tok::Assign);
      unsigned destWidth = ea.hi - ea.lo + 1;
      if (check(Tok::Integer)) {
        const Token& t = advance();
        ea.src = EncodeAssign::Src::Const;
        if (destWidth < 64 && (t.intValue >> destWidth))
          fail(t.loc, cat("constant ", t.intValue, " does not fit in ",
                          destWidth, " bits"));
        ea.constValue = BitVector(destWidth, t.intValue);
      } else if (check(Tok::SizedInt)) {
        const Token& t = advance();
        if (t.width != destWidth)
          fail(t.loc, cat("sized constant width ", t.width,
                          " does not match bitfield width ", destWidth));
        ea.src = EncodeAssign::Src::Const;
        ea.constValue = t.sizedValue();
      } else {
        const Token& t = expect(Tok::Identifier);
        int pi = findParam(&params, t.text);
        if (pi < 0)
          fail(t.loc, cat("'", t.text, "' is not a parameter"));
        ea.paramIndex = static_cast<unsigned>(pi);
        unsigned pWidth = machine_->paramEncodingWidth(params[pi]);
        if (accept(Tok::LBracket)) {
          ea.src = EncodeAssign::Src::ParamSlice;
          ea.paramHi = expectSmallInt("bit index", 4095);
          expect(Tok::Colon);
          ea.paramLo = expectSmallInt("bit index", 4095);
          expect(Tok::RBracket);
          if (ea.paramHi < ea.paramLo || ea.paramHi >= pWidth)
            fail(t.loc, "parameter slice out of range");
          if (ea.paramHi - ea.paramLo + 1 != destWidth)
            fail(t.loc, cat("parameter slice width ",
                            ea.paramHi - ea.paramLo + 1,
                            " does not match bitfield width ", destWidth));
        } else {
          ea.src = EncodeAssign::Src::Param;
          if (pWidth != destWidth)
            fail(t.loc, cat("parameter '", t.text, "' width ", pWidth,
                            " does not match bitfield width ", destWidth,
                            " (use an explicit slice)"));
        }
      }
      expect(Tok::Semi);
      assigns.push_back(std::move(ea));
    }
    expect(Tok::RBrace);
    return assigns;
  }

  Costs parseCosts(Costs costs) {
    expect(Tok::LBrace);
    while (!check(Tok::RBrace)) {
      const Token& key = expect(Tok::Identifier);
      expect(Tok::Assign);
      unsigned v = expectSmallInt("cost", 1u << 16);
      expect(Tok::Semi);
      if (key.text == "cycle") costs.cycle = v;
      else if (key.text == "stall") costs.stall = v;
      else if (key.text == "size") costs.size = v;
      else fail(key.loc, cat("unknown cost '", key.text,
                             "' (expected cycle, stall or size)"));
    }
    expect(Tok::RBrace);
    return costs;
  }

  Timing parseTiming(Timing timing) {
    expect(Tok::LBrace);
    while (!check(Tok::RBrace)) {
      const Token& key = expect(Tok::Identifier);
      expect(Tok::Assign);
      unsigned v = expectSmallInt("timing", 1u << 16);
      expect(Tok::Semi);
      if (key.text == "latency") timing.latency = v;
      else if (key.text == "usage") timing.usage = v;
      else fail(key.loc, cat("unknown timing parameter '", key.text,
                             "' (expected latency or usage)"));
    }
    expect(Tok::RBrace);
    return timing;
  }

  // --- RTL statements --------------------------------------------------------------------------
  std::vector<rtl::StmtPtr> parseStmtBlock() {
    std::vector<rtl::StmtPtr> stmts;
    expect(Tok::LBrace);
    while (!check(Tok::RBrace)) stmts.push_back(parseStmt());
    expect(Tok::RBrace);
    return stmts;
  }

  rtl::StmtPtr parseStmt() {
    SourceLoc loc = peek().loc;
    if (checkIdent("if") && peek(1).is(Tok::LParen)) {
      advance();
      expect(Tok::LParen);
      rtl::ExprPtr cond = parseExpr();
      expect(Tok::RParen);
      std::vector<rtl::StmtPtr> thenStmts = parseStmtBlock();
      std::vector<rtl::StmtPtr> elseStmts;
      if (acceptIdent("else")) elseStmts = parseStmtBlock();
      return rtl::Stmt::makeIf(std::move(cond), std::move(thenStmts),
                               std::move(elseStmts), loc);
    }
    rtl::Lvalue dest = parseLvalue();
    expect(Tok::Arrow);
    rtl::ExprPtr value = parseExpr();
    expect(Tok::Semi);
    return rtl::Stmt::makeAssign(std::move(dest), std::move(value), loc);
  }

  static int findParam(const std::vector<Param>* params,
                       std::string_view name) {
    if (!params) return -1;
    for (std::size_t i = 0; i < params->size(); ++i)
      if ((*params)[i].name == name) return static_cast<int>(i);
    return -1;
  }

  rtl::Lvalue parseLvalue() {
    const Token& nameTok = expect(Tok::Identifier);
    rtl::Lvalue lv;
    lv.loc = nameTok.loc;

    int pi = findParam(paramScope_, nameTok.text);
    if (pi >= 0) {
      lv.isParam = true;
      lv.paramIndex = static_cast<unsigned>(pi);
      return lv;  // parameter lvalues take no suffixes
    }

    int ai = machine_->findAlias(nameTok.text);
    if (ai >= 0) {
      const AliasDef& alias = machine_->aliases[ai];
      lv.storageIndex = alias.storageIndex;
      if (alias.element)
        lv.index = rtl::Expr::makeConst(
            BitVector(64, *alias.element), nameTok.loc);
      if (alias.slice) {
        lv.hasSlice = true;
        lv.sliceHi = alias.slice->first;
        lv.sliceLo = alias.slice->second;
      }
      return lv;  // alias lvalues are complete as declared
    }

    int si = machine_->findStorage(nameTok.text);
    if (si < 0)
      fail(nameTok.loc,
           cat("unknown storage, alias or parameter '", nameTok.text, "'"));
    lv.storageIndex = static_cast<unsigned>(si);
    const StorageDef& st = machine_->storages[lv.storageIndex];
    if (isAddressed(st.kind)) {
      expect(Tok::LBracket);
      lv.index = parseExpr();
      expect(Tok::RBracket);
    }
    if (accept(Tok::LBracket)) {
      lv.hasSlice = true;
      lv.sliceHi = expectSmallInt("slice bound", 4095);
      if (accept(Tok::Colon))
        lv.sliceLo = expectSmallInt("slice bound", 4095);
      else
        lv.sliceLo = lv.sliceHi;
      expect(Tok::RBracket);
      if (lv.sliceHi < lv.sliceLo || lv.sliceHi >= st.width)
        fail(nameTok.loc, "lvalue slice out of range");
    }
    return lv;
  }

  // --- RTL expressions (C-like precedence) ----------------------------------------------------------
  rtl::ExprPtr parseExpr() { return parseTernary(); }

  rtl::ExprPtr parseTernary() {
    rtl::ExprPtr cond = parseBinary(0);
    if (accept(Tok::Question)) {
      SourceLoc loc = cond->loc;
      rtl::ExprPtr a = parseExpr();
      expect(Tok::Colon);
      rtl::ExprPtr b = parseTernary();
      return rtl::Expr::makeTernary(std::move(cond), std::move(a),
                                    std::move(b), loc);
    }
    return cond;
  }

  /// Precedence climbing over kInfix: parses a chain of operators at
  /// `minLevel` or tighter, each level left-associative.
  rtl::ExprPtr parseBinary(int minLevel) {
    rtl::ExprPtr lhs = parseUnary();
    for (;;) {
      Tok next = peek().kind;
      const InfixOp* op =
          std::find_if(std::begin(kInfix), std::end(kInfix),
                       [next](const InfixOp& o) { return o.tok == next; });
      if (op == std::end(kInfix) || op->level < minLevel) return lhs;
      SourceLoc loc = advance().loc;
      lhs = rtl::Expr::makeBinary(op->op, std::move(lhs),
                                  parseBinary(op->level + 1), loc);
    }
  }

  rtl::ExprPtr parseUnary() {
    SourceLoc loc = peek().loc;
    if (accept(Tok::Bang))
      return rtl::Expr::makeUnary(rtl::UnOp::LogNot, parseUnary(), loc);
    if (accept(Tok::Tilde))
      return rtl::Expr::makeUnary(rtl::UnOp::BitNot, parseUnary(), loc);
    if (accept(Tok::Minus))
      return rtl::Expr::makeUnary(rtl::UnOp::Neg, parseUnary(), loc);
    return parsePostfix();
  }

  rtl::ExprPtr parsePostfix() {
    rtl::ExprPtr e = parsePrimary();
    while (check(Tok::LBracket)) {
      SourceLoc loc = advance().loc;
      unsigned hi = expectSmallInt("slice bound", 4095);
      unsigned lo = hi;
      if (accept(Tok::Colon)) lo = expectSmallInt("slice bound", 4095);
      expect(Tok::RBracket);
      if (hi < lo) fail(loc, "slice range must be [hi:lo]");
      e = rtl::Expr::makeSlice(std::move(e), hi, lo, loc);
    }
    return e;
  }

  rtl::ExprPtr parsePrimary() {
    SourceLoc loc = peek().loc;
    if (check(Tok::Integer)) {
      const Token& t = advance();
      // Unsized constant: width 0 until the checker coerces it by context.
      auto e = std::make_unique<rtl::Expr>(rtl::ExprKind::Const, loc);
      e->constant = BitVector(64, t.intValue);
      e->width = 0;
      return e;
    }
    if (check(Tok::SizedInt)) {
      const Token& t = advance();
      return rtl::Expr::makeConst(t.sizedValue(), loc);
    }
    if (accept(Tok::LParen)) {
      rtl::ExprPtr e = parseExpr();
      expect(Tok::RParen);
      return e;
    }
    const Token& nameTok = expect(Tok::Identifier);
    if (check(Tok::LParen)) return parseBuiltinCall(nameTok);

    int pi = findParam(paramScope_, nameTok.text);
    if (pi >= 0)
      return rtl::Expr::makeParam(static_cast<unsigned>(pi), nameTok.loc);

    int ai = machine_->findAlias(nameTok.text);
    if (ai >= 0) {
      const AliasDef& alias = machine_->aliases[ai];
      rtl::ExprPtr e;
      if (alias.element) {
        e = rtl::Expr::makeReadElem(
            alias.storageIndex,
            rtl::Expr::makeConst(BitVector(64, *alias.element), nameTok.loc),
            nameTok.loc);
      } else {
        e = rtl::Expr::makeRead(alias.storageIndex, nameTok.loc);
      }
      if (alias.slice)
        e = rtl::Expr::makeSlice(std::move(e), alias.slice->first,
                                 alias.slice->second, nameTok.loc);
      return e;
    }

    int si = machine_->findStorage(nameTok.text);
    if (si < 0)
      fail(nameTok.loc,
           cat("unknown name '", nameTok.text,
               "' (not a parameter, storage, alias or builtin)"));
    const StorageDef& st = machine_->storages[si];
    if (isAddressed(st.kind)) {
      expect(Tok::LBracket);
      rtl::ExprPtr index = parseExpr();
      expect(Tok::RBracket);
      return rtl::Expr::makeReadElem(static_cast<unsigned>(si),
                                     std::move(index), nameTok.loc);
    }
    return rtl::Expr::makeRead(static_cast<unsigned>(si), nameTok.loc);
  }

  rtl::ExprPtr parseBuiltinCall(const Token& nameTok) {
    std::string_view name = nameTok.text;
    SourceLoc loc = nameTok.loc;
    expect(Tok::LParen);
    std::vector<rtl::ExprPtr> args;
    if (!check(Tok::RParen)) {
      for (;;) {
        args.push_back(parseExpr());
        if (!accept(Tok::Comma)) break;
      }
    }
    expect(Tok::RParen);

    auto nargs = [&](std::size_t n) {
      if (args.size() != n)
        fail(loc, cat("builtin '", name, "' expects ", n, " argument(s), got ",
                      args.size()));
    };
    auto widthArg = [&](std::size_t i) -> unsigned {
      const rtl::Expr& e = *args[i];
      if (e.kind != rtl::ExprKind::Const)
        fail(loc, cat("builtin '", name,
                      "' width argument must be an integer constant"));
      std::uint64_t w = e.constant.toUint64();
      if (w == 0 || w > 4096) fail(loc, "width argument out of range");
      return static_cast<unsigned>(w);
    };

    // Width-conversion builtins: name(x, w)
    if (name == "zext" || name == "sext" || name == "trunc" ||
        name == "itof" || name == "ftoi") {
      nargs(2);
      unsigned w = widthArg(1);
      rtl::ExprKind k = name == "zext"    ? rtl::ExprKind::ZExt
                        : name == "sext"  ? rtl::ExprKind::SExt
                        : name == "trunc" ? rtl::ExprKind::Trunc
                        : name == "itof"  ? rtl::ExprKind::IToF
                                          : rtl::ExprKind::FToI;
      if ((k == rtl::ExprKind::IToF || k == rtl::ExprKind::FToI) && w != 32 &&
          w != 64)
        fail(loc, "float widths must be 32 or 64");
      return rtl::Expr::makeExt(k, std::move(args[0]), w, loc);
    }
    if (name == "concat") {
      if (args.size() < 2) fail(loc, "concat expects at least 2 arguments");
      return rtl::Expr::makeConcat(std::move(args), loc);
    }
    // Flag builtins: name(a, b)
    if (name == "carry" || name == "overflow" || name == "borrow") {
      nargs(2);
      rtl::ExprKind k = name == "carry"      ? rtl::ExprKind::Carry
                        : name == "overflow" ? rtl::ExprKind::Overflow
                                             : rtl::ExprKind::Borrow;
      auto e = std::make_unique<rtl::Expr>(k, loc);
      e->operands.push_back(std::move(args[0]));
      e->operands.push_back(std::move(args[1]));
      return e;
    }
    // Named binary operators (signed and floating-point variants).
    static const std::pair<const char*, rtl::BinOp> namedBinOps[] = {
        {"sdiv", rtl::BinOp::SDiv}, {"srem", rtl::BinOp::SRem},
        {"slt", rtl::BinOp::SLt},   {"sle", rtl::BinOp::SLe},
        {"sgt", rtl::BinOp::SGt},   {"sge", rtl::BinOp::SGe},
        {"fadd", rtl::BinOp::FAdd}, {"fsub", rtl::BinOp::FSub},
        {"fmul", rtl::BinOp::FMul}, {"fdiv", rtl::BinOp::FDiv},
        {"feq", rtl::BinOp::FEq},   {"flt", rtl::BinOp::FLt},
        {"fle", rtl::BinOp::FLe},
    };
    for (const auto& [n, op] : namedBinOps) {
      if (name == n) {
        nargs(2);
        return rtl::Expr::makeBinary(op, std::move(args[0]),
                                     std::move(args[1]), loc);
      }
    }
    fail(nameTok.loc, cat("unknown builtin '", name, "'"));
  }
};

}  // namespace

std::unique_ptr<Machine> parseIsdl(std::string_view source,
                                   DiagnosticEngine& diags) {
  TokenStream tokens = lex(source, diags);
  if (diags.hasErrors()) return nullptr;
  try {
    return Parser(tokens.tokens, diags).run();
  } catch (const ParseAbort&) {
    return nullptr;
  }
}

std::unique_ptr<Machine> parseAndCheckIsdl(std::string_view source) {
  DiagnosticEngine diags;
  std::unique_ptr<Machine> m = parseIsdl(source, diags);
  if (m) checkMachine(*m, diags);
  if (!m || diags.hasErrors())
    throw IsdlError("ISDL description is invalid:\n" + diags.dump());
  return m;
}

}  // namespace isdl
