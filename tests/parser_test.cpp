#include "isdl/parser.h"

#include <gtest/gtest.h>

#include "isdl/sema.h"
#include "test_machines.h"

namespace isdl {
namespace {

std::unique_ptr<Machine> parseOk(std::string_view src) {
  DiagnosticEngine diags;
  auto m = parseIsdl(src, diags);
  EXPECT_NE(m, nullptr) << diags.dump();
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return m;
}

void expectParseError(std::string_view src, std::string_view needle) {
  DiagnosticEngine diags;
  auto m = parseIsdl(src, diags);
  EXPECT_EQ(m, nullptr);
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_NE(diags.dump().find(needle), std::string::npos)
      << "expected error containing '" << needle << "', got:\n"
      << diags.dump();
}

TEST(Parser, MiniMachineStructure) {
  auto m = parseOk(testing::kMiniIsdl);
  EXPECT_EQ(m->name, "MINI");
  EXPECT_EQ(m->wordWidth, 32u);

  ASSERT_EQ(m->tokens.size(), 3u);
  EXPECT_EQ(m->tokens[0].name, "REG");
  EXPECT_EQ(m->tokens[0].kind, TokenKind::Enum);
  EXPECT_EQ(m->tokens[0].width, 3u);
  ASSERT_EQ(m->tokens[0].members.size(), 8u);
  EXPECT_EQ(m->tokens[0].members[5].syntax, "R5");
  EXPECT_EQ(m->tokens[0].members[5].value, 5u);
  EXPECT_EQ(m->tokens[1].kind, TokenKind::Immediate);
  EXPECT_FALSE(m->tokens[1].isSigned);
  EXPECT_TRUE(m->tokens[2].isSigned);

  ASSERT_EQ(m->nonTerminals.size(), 1u);
  const NonTerminal& nt = m->nonTerminals[0];
  EXPECT_EQ(nt.name, "SRC");
  EXPECT_EQ(nt.returnWidth, 9u);
  ASSERT_EQ(nt.options.size(), 2u);
  EXPECT_EQ(nt.options[0].params.size(), 1u);
  EXPECT_EQ(nt.options[0].params[0].kind, ParamKind::Token);
  EXPECT_NE(nt.options[0].value, nullptr);
  // Option 1 syntax: "#" then the parameter.
  ASSERT_EQ(nt.options[1].syntax.size(), 2u);
  EXPECT_TRUE(nt.options[1].syntax[0].isLiteral);
  EXPECT_EQ(nt.options[1].syntax[0].literal, "#");
  EXPECT_FALSE(nt.options[1].syntax[1].isLiteral);

  ASSERT_EQ(m->storages.size(), 5u);
  EXPECT_EQ(m->storages[0].kind, StorageKind::InstructionMemory);
  EXPECT_EQ(m->storages[2].kind, StorageKind::RegisterFile);
  EXPECT_EQ(m->storages[2].depth, 8u);
  ASSERT_EQ(m->aliases.size(), 2u);
  EXPECT_EQ(m->aliases[0].name, "CARRY");
  ASSERT_TRUE(m->aliases[0].slice.has_value());
  EXPECT_EQ(m->aliases[0].slice->first, 0u);
  ASSERT_TRUE(m->aliases[1].element.has_value());
  EXPECT_EQ(*m->aliases[1].element, 7u);

  ASSERT_EQ(m->fields.size(), 2u);
  EXPECT_EQ(m->fields[0].name, "EX");
  EXPECT_EQ(m->fields[0].operations.size(), 10u);
  EXPECT_EQ(m->fields[1].operations.size(), 3u);

  const int addIndex = m->fields[0].findOperation("add");
  ASSERT_GE(addIndex, 0);
  const Operation* add = &m->fields[0].operations[addIndex];
  EXPECT_EQ(add->params.size(), 3u);
  EXPECT_EQ(add->encode.size(), 4u);
  EXPECT_EQ(add->encode[0].src, EncodeAssign::Src::Const);
  EXPECT_EQ(add->encode[0].hi, 31u);
  EXPECT_EQ(add->encode[0].lo, 27u);
  EXPECT_EQ(add->encode[0].constValue.toUint64(), 1u);
  EXPECT_EQ(add->encode[1].src, EncodeAssign::Src::Param);
  EXPECT_EQ(add->action.size(), 1u);
  EXPECT_EQ(add->sideEffects.size(), 1u);
  // Default costs/timing.
  EXPECT_EQ(add->costs.cycle, 1u);
  EXPECT_EQ(add->costs.size, 1u);
  EXPECT_EQ(add->timing.latency, 1u);

  const int ldIndex = m->fields[0].findOperation("ld");
  ASSERT_GE(ldIndex, 0);
  const Operation* ld = &m->fields[0].operations[ldIndex];
  EXPECT_EQ(ld->costs.stall, 1u);
  EXPECT_EQ(ld->timing.latency, 2u);

  ASSERT_EQ(m->constraints.size(), 4u);
  EXPECT_EQ(m->constraints[0].ops.size(), 2u);
  EXPECT_EQ(m->constraints[0].ops[0].fieldIndex, 0u);
  EXPECT_EQ(m->constraints[0].text, "EX.addi & MV.mvi");

  EXPECT_EQ(m->optionalInfo.at("halt_operation"), "EX.halt");
}

TEST(Parser, MiniMachinePassesSema) {
  auto m = parseOk(testing::kMiniIsdl);
  DiagnosticEngine diags;
  EXPECT_TRUE(checkMachine(*m, diags)) << diags.dump();
  EXPECT_EQ(m->pcIndex, 3);
  EXPECT_EQ(m->imemIndex, 0);
  EXPECT_EQ(m->fields[0].nopIndex, 0);
  EXPECT_EQ(m->fields[1].nopIndex, 0);  // "mnop" has no params and no action
  EXPECT_EQ(m->nonTerminals[0].valueWidth, 16u);
  EXPECT_EQ(m->maxSizeWords(), 1u);
}

TEST(Parser, ExplicitTokenMemberList) {
  auto m = parseOk(R"(
machine T {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 4;
    program_counter PC width 4;
  }
  section global_definitions {
    token CC enum width 2 { "eq" = 0, "ne" = 1, "al" = 3 };
  }
  section instruction_set {
    field F { operation nop() { encode { inst[15] = 0; } } }
  }
}
)");
  ASSERT_EQ(m->tokens.size(), 1u);
  ASSERT_EQ(m->tokens[0].members.size(), 3u);
  EXPECT_EQ(m->tokens[0].memberValue("ne"), 1u);
  EXPECT_EQ(m->tokens[0].memberSyntax(3), "al");
  EXPECT_EQ(m->tokens[0].memberValue("xx"), std::nullopt);
  EXPECT_EQ(m->tokens[0].memberSyntax(2), std::nullopt);
}

TEST(Parser, ErrorUnknownSection) {
  expectParseError("machine M { section bogus { } }", "unknown section");
}

TEST(Parser, ErrorRedefinition) {
  expectParseError(R"(
machine M {
  section storage {
    register A width 8;
    register A width 8;
    instruction_memory IM width 8 depth 4;
    program_counter PC width 4;
  }
}
)",
                   "redefinition");
}

TEST(Parser, ErrorUnknownParamType) {
  expectParseError(R"(
machine M {
  section format { word_width = 8; }
  section instruction_set {
    field F { operation op(x: NOPE) { } }
  }
}
)",
                   "unknown token or non-terminal");
}

TEST(Parser, ErrorEncodeConstTooWide) {
  expectParseError(R"(
machine M {
  section format { word_width = 8; }
  section instruction_set {
    field F { operation op() { encode { inst[3:0] = 99; } } }
  }
}
)",
                   "does not fit");
}

TEST(Parser, ErrorEncodeParamWidthMismatch) {
  expectParseError(R"(
machine M {
  section format { word_width = 8; }
  section global_definitions { token U4 immediate unsigned width 4; }
  section instruction_set {
    field F { operation op(i: U4) { encode { inst[7:0] = i; } } }
  }
}
)",
                   "does not match bitfield width");
}

TEST(Parser, ParamSliceEncoding) {
  // Split immediate across two bitfields — the classic Axiom-1 test.
  auto m = parseOk(R"(
machine M {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 4;
    program_counter PC width 4;
  }
  section global_definitions { token U8 immediate unsigned width 8; }
  section instruction_set {
    field F {
      operation op(i: U8) {
        encode { inst[15:14] = 2'd1; inst[13:10] = i[7:4]; inst[3:0] = i[3:0]; }
      }
    }
  }
}
)");
  const Operation& op = m->fields[0].operations[0];
  ASSERT_EQ(op.encode.size(), 3u);
  EXPECT_EQ(op.encode[1].src, EncodeAssign::Src::ParamSlice);
  EXPECT_EQ(op.encode[1].paramHi, 7u);
  EXPECT_EQ(op.encode[1].paramLo, 4u);
}

TEST(Parser, ErrorConstraintUnknownOp) {
  expectParseError(R"(
machine M {
  section format { word_width = 8; }
  section instruction_set {
    field F { operation nop() { encode { inst[7] = 0; } } }
  }
  section constraints { never F.bogus & F.nop; }
}
)",
                   "unknown operation");
}

TEST(Parser, ErrorConstraintSingleOp) {
  expectParseError(R"(
machine M {
  section format { word_width = 8; }
  section instruction_set {
    field F { operation nop() { encode { inst[7] = 0; } } }
  }
  section constraints { never F.nop; }
}
)",
                   "at least two");
}

TEST(Parser, ErrorStrayDollar) {
  DiagnosticEngine diags;
  EXPECT_EQ(parseIsdl("machine M { section format { $ } }", diags), nullptr);
  EXPECT_EQ(diags.dump(), "1:30: error: stray '$' (did you mean '$$'?)\n");
}

/// Parses `expr` as the value of an action over registers A..D (storages
/// S2..S5) and renders it with rtl::toString.
std::string parseRtlExpr(const std::string& expr) {
  auto m = parseOk(R"(
machine M {
  section format { word_width = 8; }
  section storage {
    instruction_memory IM width 8 depth 4;
    program_counter PC width 4;
    register A width 8;
    register B width 8;
    register C width 8;
    register D width 8;
  }
  section instruction_set {
    field F {
      operation op() { encode { inst[7] = 1; } action { A <- )" +
                   expr + R"(; } }
    }
  }
}
)");
  if (!m) return "<parse error>";
  return rtl::toString(*m->fields[0].operations[0].action[0]->value);
}

TEST(Parser, RtlExpressionPrecedence) {
  // Each pair straddles one boundary between adjacent levels, written both
  // ways round, so the tighter operator groups first wherever it stands.
  const std::pair<const char*, const char*> cases[] = {
      {"A || B && C", "(S2 || (S3 && S4))"},
      {"A && B || C", "((S2 && S3) || S4)"},
      {"A && B | C", "(S2 && (S3 | S4))"},
      {"A | B && C", "((S2 | S3) && S4)"},
      {"A | B ^ C", "(S2 | (S3 ^ S4))"},
      {"A ^ B | C", "((S2 ^ S3) | S4)"},
      {"A ^ B & C", "(S2 ^ (S3 & S4))"},
      {"A & B ^ C", "((S2 & S3) ^ S4)"},
      {"A & B == C", "(S2 & (S3 == S4))"},
      {"A != B & C", "((S2 != S3) & S4)"},
      {"A == B < C", "(S2 == (S3 <u S4))"},
      {"A >= B != C", "((S2 >=u S3) != S4)"},
      {"A <= B << C", "(S2 <=u (S3 << S4))"},
      {"A >>> B > C", "((S2 >>> S3) >u S4)"},
      {"A >> B + C", "(S2 >> (S3 + S4))"},
      {"A - B << C", "((S2 - S3) << S4)"},
      {"A + B * C", "(S2 + (S3 * S4))"},
      {"A % B - C", "((S2 %u S3) - S4)"},
      {"A / -B", "(S2 /u -(S3))"},
      {"~A * B", "(~(S2) * S3)"},
      {"!A && B", "(!(S2) && S3)"},
      {"(A + B) * C", "((S2 + S3) * S4)"},
  };
  for (const auto& [expr, expected] : cases)
    EXPECT_EQ(parseRtlExpr(expr), expected) << expr;
}

TEST(Parser, RtlBinaryLevelsAreLeftAssociative) {
  const std::pair<const char*, const char*> cases[] = {
      {"A || B || C", "((S2 || S3) || S4)"},
      {"A && B && C", "((S2 && S3) && S4)"},
      {"A | B | C", "((S2 | S3) | S4)"},
      {"A ^ B ^ C", "((S2 ^ S3) ^ S4)"},
      {"A & B & C", "((S2 & S3) & S4)"},
      {"A == B != C", "((S2 == S3) != S4)"},
      {"A < B >= C", "((S2 <u S3) >=u S4)"},
      {"A << B >> C", "((S2 << S3) >> S4)"},
      {"A >>> B << C", "((S2 >>> S3) << S4)"},
      {"A - B - C", "((S2 - S3) - S4)"},
      {"A - B + C", "((S2 - S3) + S4)"},
      {"A / B % C", "((S2 /u S3) %u S4)"},
      {"A * B / C", "((S2 * S3) /u S4)"},
  };
  for (const auto& [expr, expected] : cases)
    EXPECT_EQ(parseRtlExpr(expr), expected) << expr;
}

TEST(Parser, RtlTernaryIsRightAssociative) {
  EXPECT_EQ(parseRtlExpr("A ? B : C ? D : A"), "(S2 ? S3 : (S4 ? S5 : S2))");
  EXPECT_EQ(parseRtlExpr("A || B ? C + D : A"), "((S2 || S3) ? (S4 + S5) : S2)");
}

TEST(Parser, RtlBinaryNodeKeepsOperatorLocation) {
  auto m = parseOk(R"(machine M {
  section format { word_width = 8; }
  section storage {
    instruction_memory IM width 8 depth 4;
    program_counter PC width 4;
    register A width 8;
  }
  section instruction_set {
    field F { operation op() { encode { inst[7] = 1; } action {
A <- A + A * A; } } }
  }
}
)");
  const rtl::Expr& sum = *m->fields[0].operations[0].action[0]->value;
  EXPECT_EQ(sum.loc.str(), "10:8");
  EXPECT_EQ(sum.operands[1]->loc.str(), "10:12");
}

TEST(Parser, RtlTernaryAndBuiltins) {
  auto m = parseOk(R"(
machine M {
  section format { word_width = 8; }
  section storage {
    instruction_memory IM width 8 depth 4;
    program_counter PC width 4;
    register A width 8;
  }
  section instruction_set {
    field F {
      operation op() {
        encode { inst[7] = 1; }
        action { A <- (A == 8'd0) ? sext(A[3:0], 8) : ~A; }
      }
    }
  }
}
)");
  const auto& v = *m->fields[0].operations[0].action[0]->value;
  EXPECT_EQ(v.kind, rtl::ExprKind::Ternary);
  EXPECT_EQ(v.operands[1]->kind, rtl::ExprKind::SExt);
  EXPECT_EQ(v.operands[1]->operands[0]->kind, rtl::ExprKind::Slice);
  EXPECT_EQ(v.operands[2]->kind, rtl::ExprKind::Unary);
}

TEST(Parser, ErrorUnknownBuiltin) {
  expectParseError(R"(
machine M {
  section format { word_width = 8; }
  section storage {
    instruction_memory IM width 8 depth 4;
    program_counter PC width 4;
    register A width 8;
  }
  section instruction_set {
    field F {
      operation op() { encode { inst[7] = 1; } action { A <- frobnicate(A); } }
    }
  }
}
)",
                   "unknown builtin");
}

}  // namespace
}  // namespace isdl
