#include "isdl/sema.h"

#include <gtest/gtest.h>

#include "isdl/parser.h"
#include "support/strings.h"

namespace isdl {
namespace {

/// Wraps `body` sections in a machine that already has the mandatory storage.
std::string machineWith(std::string_view body) {
  return cat(R"(
machine M {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    program_counter PC width 4;
    register_file RF width 8 depth 4;
    register A width 8;
  }
)",
             body, "\n}\n");
}

void expectSemaError(const std::string& src, std::string_view needle) {
  DiagnosticEngine diags;
  auto m = parseIsdl(src, diags);
  ASSERT_NE(m, nullptr) << diags.dump();
  EXPECT_FALSE(checkMachine(*m, diags));
  EXPECT_NE(diags.dump().find(needle), std::string::npos)
      << "expected error containing '" << needle << "', got:\n"
      << diags.dump();
}

void expectSemaOk(const std::string& src) {
  DiagnosticEngine diags;
  auto m = parseIsdl(src, diags);
  ASSERT_NE(m, nullptr) << diags.dump();
  EXPECT_TRUE(checkMachine(*m, diags)) << diags.dump();
}

TEST(Sema, MissingWordWidth) {
  expectSemaError(R"(
machine M {
  section storage {
    instruction_memory IM width 16 depth 16;
    program_counter PC width 4;
  }
  section instruction_set {
    field F { operation nop() { } }
  }
}
)",
                  "word_width");
}

TEST(Sema, MissingProgramCounter) {
  expectSemaError(R"(
machine M {
  section format { word_width = 16; }
  section storage { instruction_memory IM width 16 depth 16; }
  section instruction_set { field F { operation nop() { } } }
}
)",
                  "program_counter");
}

TEST(Sema, DuplicateProgramCounter) {
  expectSemaError(R"(
machine M {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    program_counter PC width 4;
    program_counter PC2 width 4;
  }
  section instruction_set { field F { operation nop() { } } }
}
)",
                  "multiple program_counter");
}

TEST(Sema, InstructionMemoryWidthMustMatchWordWidth) {
  expectSemaError(R"(
machine M {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 8 depth 16;
    program_counter PC width 4;
  }
  section instruction_set { field F { operation nop() { } } }
}
)",
                  "must equal word_width");
}

TEST(Sema, EmptyInstructionSet) {
  expectSemaError(machineWith("section instruction_set { }"),
                  "at least one field");
}

TEST(Sema, AssignmentWidthMismatch) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15] = 1; }
        action { A <- PC; }
      }
    }
  }
)"),
                  "width mismatch");
}

TEST(Sema, UnsizedConstantNeedsContext) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15] = 1; }
        action { if (3 == 3) { A <- 8'd1; } }
      }
    }
  }
)"),
                  "cannot infer");
}

TEST(Sema, ConstantTooWideForContext) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15] = 1; }
        action { A <- A + 999; }
      }
    }
  }
)"),
                  "does not fit");
}

TEST(Sema, OperandWidthMismatchRequiresExplicitConversion) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15] = 1; }
        action { A <- A + PC; }
      }
    }
  }
)"),
                  "zext/sext/trunc");
}

TEST(Sema, SliceOutOfRange) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15] = 1; }
        action { A <- zext(A[9:2], 8); }
      }
    }
  }
)"),
                  "out of range");
}

TEST(Sema, ParamBitNeverEncodedIsUndisassemblable) {
  expectSemaError(machineWith(R"(
  section global_definitions { token U8 immediate unsigned width 8; }
  section instruction_set {
    field F {
      operation op(i: U8) {
        encode { inst[15] = 1; inst[3:0] = i[3:0]; }
      }
    }
  }
)"),
                  "never appears in the encoding");
}

TEST(Sema, EncodeBitAssignedTwice) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15:8] = 8'd1; inst[9] = 1; }
      }
    }
  }
)"),
                  "assigned more than once");
}

TEST(Sema, ZeroCycleCostRejected) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() { encode { inst[15] = 1; } costs { cycle = 0; } }
    }
  }
)"),
                  "cycle cost");
}

TEST(Sema, ZeroLatencyRejected) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() { encode { inst[15] = 1; } timing { latency = 0; } }
    }
  }
)"),
                  "latency");
}

TEST(Sema, NonTerminalValueWidthsMustAgree) {
  expectSemaError(machineWith(R"(
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    nonterminal X returns width 3 {
      option a(r: REG) { encode { $$[2] = 0; $$[1:0] = r; } value { RF[r] } }
      option b(r: REG) { encode { $$[2] = 1; $$[1:0] = r; } value { zext(RF[r], 9) } }
    }
  }
  section instruction_set {
    field F { operation nop() { encode { inst[15] = 0; } } }
  }
)"),
                  "disagree on value width");
}

TEST(Sema, NonTerminalWithoutValueCannotBeRead) {
  expectSemaError(machineWith(R"(
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    nonterminal X returns width 2 {
      option a(r: REG) { encode { $$[1:0] = r; } }
    }
  }
  section instruction_set {
    field F {
      operation op(x: X) {
        encode { inst[15] = 1; inst[1:0] = x; }
        action { A <- A + zext(x, 8); }
      }
    }
  }
)"),
                  "has no runtime value");
}

TEST(Sema, LvalueNonTerminalAssignment) {
  expectSemaOk(machineWith(R"(
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    nonterminal DST returns width 2 {
      option reg(r: REG) {
        encode { $$[1:0] = r; }
        value { RF[r] }
        lvalue { RF[r] }
      }
    }
  }
  section instruction_set {
    field F {
      operation inc(d: DST) {
        encode { inst[15] = 1; inst[1:0] = d; }
        action { d <- d + 8'd1; }
      }
    }
  }
)"));
}

TEST(Sema, NonLvalueParamCannotBeAssigned) {
  expectSemaError(machineWith(R"(
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
  }
  section instruction_set {
    field F {
      operation op(r: REG) {
        encode { inst[15] = 1; inst[1:0] = r; }
        action { r <- 2'd1; }
      }
    }
  }
)"),
                  "cannot be assigned");
}

TEST(Sema, TernaryConditionMustBeOneBit) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15] = 1; }
        action { A <- A ? A : A; }
      }
    }
  }
)"),
                  "1 bit");
}

TEST(Sema, LogicalOpsRequireOneBitOperands) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15] = 1; }
        action { if (A && (A == 8'd1)) { A <- 8'd0; } }
      }
    }
  }
)"),
                  "1-bit operands");
}

TEST(Sema, FloatWidthRestriction) {
  expectSemaError(machineWith(R"(
  section instruction_set {
    field F {
      operation op() {
        encode { inst[15] = 1; }
        action { A <- fadd(A, A); }
      }
    }
  }
)"),
                  "32 or 64");
}

TEST(Sema, MultiWordInstructionEncodingAllowed) {
  // size = 2 permits encoding bits in the second word.
  expectSemaOk(machineWith(R"(
  section global_definitions { token U16 immediate unsigned width 16; }
  section instruction_set {
    field F {
      operation limm(i: U16) {
        encode { inst[15:12] = 4'd9; inst[31:16] = i; }
        action { A <- i[7:0]; }
        costs { size = 2; }
      }
    }
  }
)"));
}

TEST(Sema, EncodeBitBeyondInstructionSize) {
  expectSemaError(machineWith(R"(
  section global_definitions { token U16 immediate unsigned width 16; }
  section instruction_set {
    field F {
      operation limm(i: U16) {
        encode { inst[15:12] = 4'd9; inst[31:16] = i; }
      }
    }
  }
)"),
                  "exceeds instruction size");
}

TEST(Sema, WarnOnInstructionMemoryWrite) {
  DiagnosticEngine diags;
  auto m = parseIsdl(machineWith(R"(
  section instruction_set {
    field F {
      operation smc() {
        encode { inst[15] = 1; }
        action { IM[PC] <- 16'd0; }
      }
    }
  }
)"),
                     diags);
  ASSERT_NE(m, nullptr) << diags.dump();
  EXPECT_TRUE(checkMachine(*m, diags));
  EXPECT_NE(diags.dump().find("off-line"), std::string::npos);
}

TEST(Sema, ResolvesHaltOperation) {
  const std::string sections = R"(
  section instruction_set {
    field F { operation nop() { encode { inst[15:12] = 4'd0; } } }
    field G {
      operation nop() { encode { inst[11:8] = 4'd0; } }
      operation halt() { encode { inst[11:8] = 4'd15; } }
    }
  }
)";
  DiagnosticEngine diags;
  auto m = parseIsdl(machineWith(sections +
                                 "  section optional { halt_operation = "
                                 "\"G.halt\"; }"),
                     diags);
  ASSERT_NE(m, nullptr) << diags.dump();
  ASSERT_TRUE(checkMachine(*m, diags)) << diags.dump();
  EXPECT_EQ(m->haltOp, (OpRef{1, 1}));

  auto none = parseIsdl(machineWith(sections), diags);
  ASSERT_NE(none, nullptr) << diags.dump();
  ASSERT_TRUE(checkMachine(*none, diags)) << diags.dump();
  EXPECT_FALSE(none->haltOp.has_value());
}

}  // namespace
}  // namespace isdl
