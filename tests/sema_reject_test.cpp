// Table-driven negative tests for the ISDL front end: each case is an
// invalid description and the exact diagnostic the parser or semantic
// analysis must emit for it. The fuzz generator (src/testing/machinegen)
// promises to emit only sema-clean descriptions, so this suite is what
// documents — and pins — the rejection behaviour for everything outside
// that space: width discipline, encoding reversibility, storage shape
// rules, and reference resolution.

#include <gtest/gtest.h>

#include "isdl/parser.h"
#include "isdl/sema.h"
#include "support/strings.h"

namespace isdl {
namespace {

/// Parses + checks an intentionally invalid description and returns every
/// diagnostic. The description must NOT be accepted.
std::string reject(const std::string& source) {
  DiagnosticEngine diags;
  auto machine = parseIsdl(source, diags);
  if (machine && !diags.hasErrors()) checkMachine(*machine, diags);
  EXPECT_TRUE(diags.hasErrors())
      << "description was accepted:\n" << source;
  return diags.dump();
}

/// A valid minimal machine with one substitutable operation body; cases
/// inject their fault into `op` (or replace other sections via the full
/// tables below).
std::string withOp(const std::string& op) {
  return cat(R"(
machine T {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    data_memory DM width 8 depth 16;
    register_file RF width 8 depth 4;
    program_counter PC width 12;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token U4 immediate unsigned width 4;
  }
  section instruction_set {
    field F {
      operation nop() { encode { inst[15:12] = 4'd0; } }
)",
             "      ", op, R"(
    }
  }
}
)");
}

struct RejectCase {
  const char* name;
  std::string source;
  const char* expected;  ///< exact diagnostic text (message part)
};

// Print the case by name: gtest's default dumps the struct's bytes, whose
// pointers change with address-space randomisation, so ctest names would
// change on every rebuild.
void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.name; }

class SemaRejectTest : public ::testing::TestWithParam<RejectCase> {};

TEST_P(SemaRejectTest, EmitsExactDiagnostic) {
  const RejectCase& c = GetParam();
  std::string dump = reject(c.source);
  EXPECT_NE(dump.find(c.expected), std::string::npos)
      << "expected diagnostic:\n  " << c.expected << "\ngot:\n" << dump;
}

const char* kTwoPcs = R"(
machine T {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    register_file RF width 8 depth 4;
    program_counter PC width 12;
    program_counter PC2 width 12;
  }
  section instruction_set {
    field F { operation nop() { encode { inst[15:12] = 4'd0; } } }
  }
}
)";

const char* kImemWidthMismatch = R"(
machine T {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 8 depth 32;
    register_file RF width 8 depth 4;
    program_counter PC width 12;
  }
  section instruction_set {
    field F { operation nop() { encode { inst[15:12] = 4'd0; } } }
  }
}
)";

const char* kNoWordWidth = R"(
machine T {
  section format { }
  section storage {
    instruction_memory IM width 16 depth 32;
    register_file RF width 8 depth 4;
    program_counter PC width 12;
  }
  section instruction_set {
    field F { operation nop() { encode { inst[15:12] = 4'd0; } } }
  }
}
)";

const char* kEmptyField = R"(
machine T {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    register_file RF width 8 depth 4;
    program_counter PC width 12;
  }
  section instruction_set {
    field F { operation nop() { encode { inst[15:12] = 4'd0; } } }
    field F2 { }
  }
}
)";

const char* kDupStorage = R"(
machine T {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    register_file RF width 8 depth 4;
    register_file RF width 8 depth 4;
    program_counter PC width 12;
  }
  section instruction_set {
    field F { operation nop() { encode { inst[15:12] = 4'd0; } } }
  }
}
)";

const char* kNtDisagree = R"(
machine T {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    register_file RF width 8 depth 4;
    program_counter PC width 12;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token U4 immediate unsigned width 4;
    nonterminal S returns width 5 {
      option reg(r: REG) {
        syntax r;
        encode { $$[4] = 0; $$[3:2] = 2'd0; $$[1:0] = r; }
        value { RF[r] }
      }
      option imm(i: U4) {
        syntax "#" i;
        encode { $$[4] = 1; $$[3:0] = i; }
        value { zext(i, 16) }
      }
    }
  }
  section instruction_set {
    field F { operation nop() { encode { inst[15:12] = 4'd0; } } }
  }
}
)";

/// A valid machine whose optional section names `haltOperation`.
std::string withHalt(const std::string& haltOperation) {
  return cat(R"(
machine T {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 32;
    program_counter PC width 12;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = ")",
             haltOperation, R"("; }
}
)");
}

INSTANTIATE_TEST_SUITE_P(
    InvalidDescriptions, SemaRejectTest,
    ::testing::Values(
        // --- description / section level ---------------------------------
        RejectCase{"NoWordWidth", kNoWordWidth,
                   "format section must set word_width"},
        RejectCase{"TwoProgramCounters", kTwoPcs,
                   "multiple program_counter storages defined"},
        RejectCase{"ImemWidthMismatch", kImemWidthMismatch,
                   "instruction memory width 8 must equal word_width 16"},
        RejectCase{"EmptyField", kEmptyField, "field 'F2' has no operations"},
        RejectCase{"DuplicateStorage", kDupStorage, "redefinition of 'RF'"},
        RejectCase{"NtOptionsDisagreeOnValueWidth", kNtDisagree,
                   "options of non-terminal 'S' disagree on value width "
                   "(8 vs 16)"},
        RejectCase{"HaltOperationUnknownOp", withHalt("EX.hlt"),
                   "14:39: error: optional halt_operation 'EX.hlt' does not "
                   "name a field.operation"},
        RejectCase{"HaltOperationWithoutField", withHalt("halt"),
                   "14:39: error: optional halt_operation 'halt' does not "
                   "name a field.operation"},
        RejectCase{"HaltOperationUnknownField", withHalt("NOFIELD.halt"),
                   "14:39: error: optional halt_operation 'NOFIELD.halt' "
                   "does not name a field.operation"},
        // --- encoding ----------------------------------------------------
        RejectCase{"EncodeBitTwice",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[12] = 1; inst[11:10] = d; } }"),
                   "bit 12 assigned more than once"},
        RejectCase{"ParamBitNotEncoded",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11] = d[0:0]; }"
                          " action { RF[d] <- RF[d]; } }"),
                   "bit 1 of parameter 'd' never appears in the encoding, "
                   "so the assembly function is not reversible"},
        // --- costs -------------------------------------------------------
        RejectCase{"ZeroCycleCost",
                   withOp("operation a() { encode { inst[15:12] = 4'd1; }"
                          " costs { cycle = 0; } }"),
                   "cycle cost must be >= 1"},
        RejectCase{"UnknownCost",
                   withOp("operation a() { encode { inst[15:12] = 4'd1; }"
                          " costs { bogus = 1; } }"),
                   "unknown cost 'bogus' (expected cycle, stall or size)"},
        // --- width discipline --------------------------------------------
        RejectCase{"OperandWidthsDiffer",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- RF[d] + PC; } }"),
                   "operand widths differ: 8 vs 12 (use zext/sext/trunc to "
                   "convert explicitly)"},
        RejectCase{"AssignmentWidthMismatch",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- zext(RF[d], 12); } }"),
                   "assignment width mismatch: destination is 8 bits, value "
                   "is 12 bits (use zext/sext/trunc)"},
        RejectCase{"UnsizedConstantNoContext",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { if (255 == 255)"
                          " { RF[d] <- RF[d]; } } }"),
                   "cannot infer the width of this constant; use a sized "
                   "literal like 8'd255"},
        RejectCase{"ConstantTooWideForContext",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- 300; } }"),
                   "constant 300 does not fit in 8 bits"},
        RejectCase{"SliceOutOfRange",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- RF[d][9:2]; } }"),
                   "slice bit 9 out of range for width 8"},
        RejectCase{"TernaryConditionNotOneBit",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- RF[d] ? RF[d] : RF[d]; } }"),
                   "ternary condition must be 1 bit wide, got 8"},
        RejectCase{"LogicalAndOnWideOperands",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- (RF[d] && RF[d]) ? RF[d]"
                          " : RF[d]; } }"),
                   "&& and || require 1-bit operands (use comparisons)"},
        RejectCase{"IfConditionNotOneBit",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { if (RF[d]) { RF[d] <- RF[d]; } } }"),
                   "if condition must be 1 bit wide, got 8"},
        RejectCase{"FtoiOperandWidth",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- trunc(ftoi(RF[d], 32), 8);"
                          " } }"),
                   "ftoi operand must be 32 or 64 bits, got 8"},
        // --- storage / reference resolution ------------------------------
        // The parser itself demands the index for addressed storages, so a
        // bare RF read is a parse-time rejection.
        RejectCase{"RegisterFileNotIndexed",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- RF; } }"),
                   "expected '[', found ';'"},
        RejectCase{"UnknownStorageInAction",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { RF[d] <- XYZZY; } }"),
                   "unknown name 'XYZZY' (not a parameter, storage, alias or "
                   "builtin)"},
        RejectCase{"UnknownParamType",
                   withOp("operation a(d: NOPE) { encode { inst[15:12] ="
                          " 4'd1; } }"),
                   "unknown token or non-terminal 'NOPE'"},
        RejectCase{"AssignToTokenParam",
                   withOp("operation a(d: REG) { encode { inst[15:12] = 4'd1;"
                          " inst[11:10] = d; }"
                          " action { d <- 2'd0; } }"),
                   "cannot be assigned"}),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace isdl
