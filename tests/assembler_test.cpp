// Tests for the retargetable assembler and its round trip through the
// signature-based disassembler (paper Figure 4).

#include "sim/assembler.h"

#include <gtest/gtest.h>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/disasm.h"
#include "support/strings.h"
#include "test_machines.h"
#include "testing/fuzzer.h"
#include "testing/machinegen.h"
#include "testing/programgen.h"

namespace isdl::sim {
namespace {

class AssemblerTest : public ::testing::Test {
 protected:
  AssemblerTest()
      : machine_(parseAndCheckIsdl(testing::kMiniIsdl)),
        sigs_(*machine_, sigDiags_),
        assembler_(sigs_),
        disasm_(sigs_) {
    EXPECT_TRUE(sigs_.valid()) << sigDiags_.dump();
  }

  AssembledProgram assembleOk(std::string_view src) {
    DiagnosticEngine diags;
    auto prog = assembler_.assemble(src, diags);
    EXPECT_TRUE(prog.has_value()) << diags.dump();
    return prog.value_or(AssembledProgram{});
  }

  void expectAsmError(std::string_view src, std::string_view needle) {
    DiagnosticEngine diags;
    auto prog = assembler_.assemble(src, diags);
    EXPECT_FALSE(prog.has_value());
    EXPECT_NE(diags.dump().find(needle), std::string::npos)
        << "expected error containing '" << needle << "', got:\n"
        << diags.dump();
  }

  /// Disassembles word `addr` of a program and renders it back to text.
  std::string roundTrip(const AssembledProgram& prog, std::uint64_t addr) {
    DecodedProgram decoded;
    const bool ok = disasm_.decodeAt(prog.words, addr, decoded);
    EXPECT_TRUE(ok);
    if (!ok) return {};
    return disasm_.render(decoded, addr);
  }

  std::unique_ptr<Machine> machine_;
  DiagnosticEngine sigDiags_;
  SignatureTable sigs_;
  Assembler assembler_;
  Disassembler disasm_;
};

TEST_F(AssemblerTest, SingleOpInstruction) {
  auto prog = assembleOk("add R3, R1, R2\n");
  ASSERT_EQ(prog.words.size(), 1u);
  const BitVector& w = prog.words[0];
  EXPECT_EQ(w.slice(31, 27).toUint64(), 1u);  // add opcode
  EXPECT_EQ(w.slice(26, 24).toUint64(), 3u);
  EXPECT_EQ(w.slice(23, 21).toUint64(), 1u);
  EXPECT_EQ(w.slice(20, 18).toUint64(), 2u);
  EXPECT_EQ(w.slice(8, 6).toUint64(), 0u);  // MV field filled with mnop
}

TEST_F(AssemblerTest, VliwInstruction) {
  auto prog = assembleOk("{ add R3, R1, R2 | mv R4, R5 }\n");
  ASSERT_EQ(prog.words.size(), 1u);
  const BitVector& w = prog.words[0];
  EXPECT_EQ(w.slice(31, 27).toUint64(), 1u);
  EXPECT_EQ(w.slice(8, 6).toUint64(), 1u);  // mv
  EXPECT_EQ(w.slice(5, 3).toUint64(), 4u);
  EXPECT_EQ(w.slice(2, 0).toUint64(), 5u);
}

TEST_F(AssemblerTest, FieldQualifiedMnemonic) {
  auto prog = assembleOk("{ EX.nop | MV.mv R1, R2 }\n");
  EXPECT_EQ(prog.words[0].slice(8, 6).toUint64(), 1u);
}

TEST_F(AssemblerTest, NonTerminalOptions) {
  auto prog = assembleOk("addi R1, R2\naddi R1, #42\n");
  ASSERT_EQ(prog.words.size(), 2u);
  // reg option: s bits [23:15], msb ($$[8]) clear, r in low bits.
  EXPECT_EQ(prog.words[0].slice(23, 23).toUint64(), 0u);
  EXPECT_EQ(prog.words[0].slice(17, 15).toUint64(), 2u);
  // imm option: msb set, payload 42.
  EXPECT_EQ(prog.words[1].slice(23, 23).toUint64(), 1u);
  EXPECT_EQ(prog.words[1].slice(22, 15).toUint64(), 42u);
}

TEST_F(AssemblerTest, SignedImmediates) {
  auto prog = assembleOk("li R1, -5\nli R2, 127\nli R3, -128\n");
  EXPECT_EQ(prog.words[0].slice(23, 16).toUint64(), 0xFBu);  // -5 two's compl
  EXPECT_EQ(prog.words[1].slice(23, 16).toUint64(), 127u);
  EXPECT_EQ(prog.words[2].slice(23, 16).toUint64(), 0x80u);
}

TEST_F(AssemblerTest, ImmediateRangeErrors) {
  expectAsmError("li R1, 300\n", "out of range");
  expectAsmError("li R1, -129\n", "out of range");
  expectAsmError("addi R1, #256\n", "out of range");
  expectAsmError("jmp 256\n", "out of range");
}

TEST_F(AssemblerTest, LabelsForwardAndBackward) {
  auto prog = assembleOk(R"(
start:  li R1, 0
loop:   addi R1, #1
        beq R1, R2, done
        jmp loop
done:   halt
)");
  EXPECT_EQ(prog.symbols.at("start"), 0u);
  EXPECT_EQ(prog.symbols.at("loop"), 1u);
  EXPECT_EQ(prog.symbols.at("done"), 4u);
  // beq at word 2 encodes target "done" = 4 in bits [20:13].
  EXPECT_EQ(prog.words[2].slice(20, 13).toUint64(), 4u);
  // jmp at word 3 encodes "loop" = 1 in bits [26:19].
  EXPECT_EQ(prog.words[3].slice(26, 19).toUint64(), 1u);
}

TEST_F(AssemblerTest, UndefinedAndDuplicateLabels) {
  expectAsmError("jmp nowhere\n", "undefined label");
  expectAsmError("x: nop\nx: nop\n", "duplicate label");
}

TEST_F(AssemblerTest, OrgAndWordDirectives) {
  auto prog = assembleOk(".org 2\nentry: nop\n.word 0xDEADBEEF\n");
  ASSERT_EQ(prog.words.size(), 4u);
  EXPECT_EQ(prog.symbols.at("entry"), 2u);
  EXPECT_TRUE(prog.words[0].isZero());
  EXPECT_EQ(prog.words[3].toUint64(), 0xDEADBEEFu);
  expectAsmError("nop\n.org 0\nnop\n", "backwards");
}

TEST_F(AssemblerTest, DataMemoryRecords) {
  auto prog = assembleOk(".dm 5 1234\n.dm 6 0xFFFF\nnop\n");
  ASSERT_EQ(prog.dataInit.size(), 2u);
  EXPECT_EQ(prog.dataInit[0].first, 5u);
  EXPECT_EQ(prog.dataInit[0].second.toUint64(), 1234u);
  EXPECT_EQ(prog.dataInit[1].second.toUint64(), 0xFFFFu);
  EXPECT_EQ(prog.dataInit[1].second.width(), 16u);  // data memory width
}

TEST_F(AssemblerTest, ConstraintViolationRejected) {
  // EX.add & MV.mvi is forbidden by a pure architectural constraint.
  expectAsmError("{ add R1, R2, R3 | mvi R4, 7 }\n", "violates constraint");
  // The same ops individually are fine.
  assembleOk("add R1, R2, R3\nmvi R4, 7\n");
}

TEST_F(AssemblerTest, UnknownMnemonicAndJunk) {
  expectAsmError("frob R1\n", "unknown operation");
  expectAsmError("nop extra\n", "trailing junk");
  expectAsmError("{ nop | nop }\n", "already occupied");
}

TEST_F(AssemblerTest, RoundTripThroughDisassembler) {
  auto prog = assembleOk(R"(
{ add R3, R1, R2 | mv R4, R5 }
addi R1, #42
addi R2, R7
li R5, -3
{ ld R2, R6 | mv R0, R1 }
st R6, R2
beq R1, R2, 0
jmp 7
halt
)");
  const char* expected[] = {
      "{ add R3, R1, R2 | mv R4, R5 }",
      "{ addi R1, # 42 | mnop }",
      "{ addi R2, R7 | mnop }",
      "{ li R5, -3 | mnop }",
      "{ ld R2, R6 | mv R0, R1 }",
      "{ st R6, R2 | mnop }",
      "{ beq R1, R2, 0 | mnop }",
      "{ jmp 7 | mnop }",
      "{ halt | mnop }",
  };
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ(roundTrip(prog, i), expected[i]) << "word " << i;
}

TEST_F(AssemblerTest, ReassemblyOfRenderedTextIsStable) {
  // asm -> bin -> text -> bin must reproduce identical words.
  const char* src = R"(
{ add R3, R1, R2 | mv R4, R5 }
addi R1, #42
li R5, -3
st R6, R2
)";
  auto prog1 = assembleOk(src);
  std::string rendered;
  for (std::size_t i = 0; i < prog1.words.size(); ++i)
    rendered += roundTrip(prog1, i) + "\n";
  auto prog2 = assembleOk(rendered);
  ASSERT_EQ(prog1.words.size(), prog2.words.size());
  for (std::size_t i = 0; i < prog1.words.size(); ++i)
    EXPECT_EQ(prog1.words[i], prog2.words[i]) << "word " << i;
}

TEST_F(AssemblerTest, CommentsAndBlankLines) {
  auto prog = assembleOk(R"(
; full-line comment
   // and another

nop   ; trailing comment
nop   // trailing slashes
)");
  EXPECT_EQ(prog.words.size(), 2u);
}

TEST(AssemblerConflict, OverlappingUnconstrainedBitsReported) {
  // Two fields whose operations share instruction bits without a constraint:
  // the assembler must reject the combination with a pointed message.
  auto m = parseAndCheckIsdl(R"(
machine M {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    program_counter PC width 4;
  }
  section global_definitions { token U8 immediate unsigned width 8; }
  section instruction_set {
    field A {
      operation anop() { encode { inst[15:14] = 2'd0; } }
      operation big(i: U8) { encode { inst[15:14] = 2'd1; inst[11:4] = i; } }
    }
    field B {
      operation bnop() { encode { inst[1:0] = 2'd0; } }
      operation also(i: U8) { encode { inst[1:0] = 2'd1; inst[9:2] = i; } }
    }
  }
}
)");
  DiagnosticEngine sigDiags;
  SignatureTable sigs(*m, sigDiags);
  ASSERT_TRUE(sigs.valid());
  Assembler assembler(sigs);
  DiagnosticEngine diags;
  EXPECT_FALSE(assembler.assemble("{ big 5 | also 9 }\n", diags).has_value());
  EXPECT_NE(diags.dump().find("add a constraint"), std::string::npos)
      << diags.dump();
  // Individually both work.
  DiagnosticEngine diags2;
  EXPECT_TRUE(assembler.assemble("big 5\nalso 9\n", diags2).has_value())
      << diags2.dump();
}

TEST(AssemblerConflict, ClashInSecondWordNamesLowestBit) {
  // The conflict check runs a 64-bit word at a time; the message must still
  // name the lowest shared bit, here in the upper word of a 128-bit word.
  auto m = parseAndCheckIsdl(R"(
machine W {
  section format { word_width = 128; }
  section storage {
    instruction_memory IM width 128 depth 16;
    program_counter PC width 4;
  }
  section global_definitions { token U8 immediate unsigned width 8; }
  section instruction_set {
    field A {
      operation anop() { encode { inst[127:126] = 2'd0; } }
      operation big(i: U8) { encode { inst[127:126] = 2'd1; inst[75:68] = i; } }
    }
    field B {
      operation bnop() { encode { inst[1:0] = 2'd0; } }
      operation also(i: U8) { encode { inst[1:0] = 2'd1; inst[77:70] = i; } }
    }
  }
}
)");
  DiagnosticEngine sigDiags;
  SignatureTable sigs(*m, sigDiags);
  ASSERT_TRUE(sigs.valid());
  Assembler assembler(sigs);
  DiagnosticEngine diags;
  EXPECT_FALSE(assembler.assemble("{ big 5 | also 9 }\n", diags).has_value());
  EXPECT_NE(diags.dump().find("sets instruction bit 70 already set"),
            std::string::npos)
      << diags.dump();

  // Without the clash both words are painted, and the same Assembler keeps
  // assembling.
  DiagnosticEngine diags2;
  auto prog = assembler.assemble("{ big 0xAB | bnop }\nalso 0xCD\n", diags2);
  ASSERT_TRUE(prog.has_value()) << diags2.dump();
  ASSERT_EQ(prog->words.size(), 2u);
  EXPECT_EQ(prog->words[0].slice(127, 126).toUint64(), 1u);
  EXPECT_EQ(prog->words[0].slice(75, 68).toUint64(), 0xABu);
  EXPECT_EQ(prog->words[0].slice(1, 0).toUint64(), 0u);
  EXPECT_EQ(prog->words[1].slice(77, 70).toUint64(), 0xCDu);
  EXPECT_EQ(prog->words[1].slice(1, 0).toUint64(), 1u);
  EXPECT_EQ(prog->words[1].slice(127, 126).toUint64(), 0u);
}

// Two fields that share instruction bits with no constraint between them.
constexpr const char* kClashIsdl = R"(
machine M {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    program_counter PC width 4;
  }
  section global_definitions { token U8 immediate unsigned width 8; }
  section instruction_set {
    field A {
      operation anop() { encode { inst[15:14] = 2'd0; } }
      operation big(i: U8) { encode { inst[15:14] = 2'd1; inst[11:4] = i; } }
    }
    field B {
      operation bnop() { encode { inst[1:0] = 2'd0; } }
      operation also(i: U8) { encode { inst[1:0] = 2'd1; inst[9:2] = i; } }
    }
  }
}
)";

TEST(AssemblerDiagnostics, DiagnosticsArePinned) {
  // The exact text of every assembler error: line, column and wording. An
  // error points at the offending token: pass 2's label and range checks
  // at the operand, a bit clash at the mnemonic, a constraint at the last
  // operation it names, an .org at its operand. A missing token is reported
  // just past the line's last one.
  struct Case {
    const char* isdl;
    const char* source;
    const char* dump;
  };
  const char* mini = testing::kMiniIsdl;
  // MINI with room past its 8-bit jump targets.
  std::string deep = mini;
  deep.replace(deep.find("IM width 32 depth 256"), 21,
               "IM width 32 depth 512");
  const Case cases[] = {
      {mini, "nop\nli R1, 0x\n", "2:8: error: bad number ''\n"},
      {mini, "li R1, 12ab\n", "1:8: error: bad number '12ab'\n"},
      {mini, "li R1, 99999999999999999999\n",
       "1:8: error: number '99999999999999999999' does not fit in 64 bits\n"},
      {mini, "  frob R1\n",
       "1:3: error: unknown operation 'frob' (or its field is already "
       "occupied)\n"},
      {mini, "{ nop | nop }\n",
       "1:9: error: unknown operation 'nop' (or its field is already "
       "occupied)\n"},
      {mini, "add R1, R2\n",
       "1:5: error: operands do not match the syntax of 'add'\n"},
      {mini, "EX.add R1, #3, R2\n",
       "1:8: error: operands do not match the syntax of 'add'\n"},
      {mini, "nop extra\n", "1:5: error: trailing junk 'extra'\n"},
      {mini, "{ nop | mnop\n", "1:13: error: expected '}' or '|'\n"},
      {mini, "x: nop\n  x: nop\n", "2:3: error: duplicate label 'x'\n"},
      {mini, "nop\njmp nowhere\n", "2:5: error: undefined label 'nowhere'\n"},
      {mini, "jmp nowhere\nnop\n",
       "1:5: error: undefined label 'nowhere'\n"},
      {deep.c_str(), ".org 300\nfar: nop\n.org 0\n",
       "3:6: error: .org cannot move backwards\n"},
      {deep.c_str(), "nop\n.org 300\nfar: nop\nnop\njmp far\n",
       "5:5: error: label 'far' address 300 does not fit in 8 bits\n"},
      {mini, ".org 18446744073709551615\nhalt\n",
       "1:6: error: .org 18446744073709551615 is past the end of instruction "
       "memory (depth 256)\n"},
      {mini, "nop\n.org 4096\nhalt\n",
       "2:6: error: .org 4096 is past the end of instruction memory (depth "
       "256)\n"},
      {mini, ".org 255\nnop\n.word 7\n",
       "3:1: error: .word at address 256 does not fit in instruction memory "
       "(depth 256)\n"},
      {mini, "li R1, 7\n.org 4 junk here\nhalt\n",
       "2:8: error: trailing junk 'junk'\n"},
      {mini, "li R1, 300\n",
       "1:8: error: immediate 300 out of range for a 8-bit signed field\n"},
      {mini, "li R1, -200\n",
       "1:8: error: immediate -200 out of range for a 8-bit signed field\n"},
      {mini, "addi R1, #256\n",
       "1:11: error: immediate 256 out of range for a 8-bit unsigned field\n"},
      {mini, "{ add R1, R2, R3 | mvi R4, 7 }\n",
       "1:20: error: instruction violates constraint: never EX.add & MV.mvi\n"},
      {mini, ".dm 1\n", "1:6: error: expected a number\n"},
      {mini, "{ nop |\n", "1:8: error: expected an operation mnemonic\n"},
      {kClashIsdl, "anop\n{ big 5 | also 9 }\n",
       "2:11: error: operation 'also' sets instruction bit 4 already set by "
       "another field's operation; add a constraint to forbid this "
       "combination\n"},
  };
  for (const Case& c : cases) {
    auto m = parseAndCheckIsdl(c.isdl);
    DiagnosticEngine sigDiags;
    SignatureTable sigs(*m, sigDiags);
    Assembler assembler(sigs);
    DiagnosticEngine diags;
    EXPECT_FALSE(assembler.assemble(c.source, diags).has_value()) << c.source;
    EXPECT_EQ(diags.dump(), c.dump) << c.source;
  }
}

/// Expects the parameters `n` of `params` to equal those at `b`, through
/// every selected option.
void expectSameParams(const Machine& m, const std::vector<Param>& params,
                      const DecodedProgram& pa, const DecodedParam* a,
                      const DecodedProgram& pb, const DecodedParam* b) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(a[i].encoded, b[i].encoded);
    ASSERT_EQ(a[i].ntOption, b[i].ntOption);
    if (params[i].kind != ParamKind::NonTerminal) continue;
    const NtOption& opt =
        m.nonTerminals[params[i].index].options[std::size_t(a[i].ntOption)];
    expectSameParams(m, opt.params, pa, pa.subOf(a[i]), pb, pb.subOf(b[i]));
  }
}

/// Expects the instruction both programs decoded at `addr` to be the same:
/// per-issue facts, and every slot's operation, timing and parameters.
void expectSameInstruction(const Machine& m, const DecodedProgram& a,
                           const DecodedProgram& b, std::uint64_t addr) {
  const DecodedInstruction& ia = a.byAddress[addr];
  const DecodedInstruction& ib = b.byAddress[addr];
  EXPECT_EQ(ia.address, ib.address);
  EXPECT_EQ(ia.sizeWords, ib.sizeWords);
  EXPECT_EQ(ia.cycles, ib.cycles);
  EXPECT_EQ(ia.usage, ib.usage);
  EXPECT_EQ(ia.usageField, ib.usageField);
  for (std::size_t f = 0; f < m.fields.size(); ++f) {
    const DecodedOp& oa = a.opsOf(ia)[f];
    const DecodedOp& ob = b.opsOf(ib)[f];
    ASSERT_EQ(oa.opIndex, ob.opIndex);
    EXPECT_EQ(oa.effCycle, ob.effCycle);
    EXPECT_EQ(oa.effStall, ob.effStall);
    EXPECT_EQ(oa.effSize, ob.effSize);
    EXPECT_EQ(oa.effLatency, ob.effLatency);
    EXPECT_EQ(oa.effUsage, ob.effUsage);
    expectSameParams(m, m.fields[f].operations[oa.opIndex].params, a,
                     a.paramsOf(oa), b, b.paramsOf(ob));
  }
}

TEST(AssemblerRoundTrip, GeneratedMachinesRoundTrip) {
  // The fuzzer's configuration: per machinegen seed, 4 generated programs of
  // 25 instructions. Each program is decoded whole, every decoded slot is
  // compared with a decode of its own address, and the rendered text must
  // assemble back to the same words.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    auto m = parseAndCheckIsdl(
        ::isdl::testing::emitIsdl(::isdl::testing::randomMachineSpec(rng)));
    DiagnosticEngine sigDiags;
    SignatureTable sigs(*m, sigDiags);
    ASSERT_TRUE(sigs.valid()) << "seed " << seed;
    Assembler assembler(sigs);
    Disassembler disasm(sigs);
    const ::isdl::testing::AssemblyGenerator gen(*m, sigs);
    for (unsigned p = 0; p < 4; ++p) {
      std::mt19937_64 prng(::isdl::testing::mixSeed(seed, p + 1));
      const std::string source = join(gen.generate(prng, 25), "\n") + "\n";
      DiagnosticEngine diags;
      auto prog = assembler.assemble(source, diags);
      ASSERT_TRUE(prog.has_value()) << "seed " << seed << "\n" << diags.dump();
      DecodedProgram decoded;
      disasm.decodeProgram(prog->words, prog->words.size(), decoded);
      ASSERT_EQ(decoded.byAddress.size(), prog->words.size());
      for (std::uint64_t a = 0; a < prog->words.size(); ++a) {
        DecodedProgram one;
        ASSERT_EQ(disasm.decodeAt(prog->words, a, one),
                  decoded.hasInstructionAt(a))
            << "seed " << seed << " address " << a;
        if (!decoded.hasInstructionAt(a)) continue;
        expectSameInstruction(*m, decoded, one, a);
        EXPECT_EQ(disasm.render(decoded, a), disasm.render(one, a));
      }
      std::string rendered;
      for (std::uint64_t a = 0; a < prog->words.size();) {
        ASSERT_TRUE(decoded.hasInstructionAt(a)) << "seed " << seed;
        rendered += disasm.render(decoded, a) + "\n";
        a += decoded.byAddress[a].sizeWords;
      }
      DiagnosticEngine rdiags;
      auto again = assembler.assemble(rendered, rdiags);
      ASSERT_TRUE(again.has_value())
          << "seed " << seed << "\n" << rendered << rdiags.dump();
      ASSERT_EQ(again->words.size(), prog->words.size()) << "seed " << seed;
      for (std::size_t w = 0; w < prog->words.size(); ++w)
        EXPECT_EQ(again->words[w], prog->words[w])
            << "seed " << seed << " word " << w;
    }
  }
}

// Number literals on SREP, whose li takes a signed and lui an unsigned
// 16-bit immediate.
class SrepNumberTest : public ::testing::Test {
 protected:
  SrepNumberTest()
      : machine_(archs::loadSrep()),
        sigs_(*machine_, sigDiags_),
        assembler_(sigs_) {}

  std::string errorOf(std::string_view src) {
    DiagnosticEngine diags;
    EXPECT_FALSE(assembler_.assemble(src, diags).has_value()) << src;
    return diags.dump();
  }

  std::unique_ptr<Machine> machine_;
  DiagnosticEngine sigDiags_;
  SignatureTable sigs_;
  Assembler assembler_;
};

TEST_F(SrepNumberTest, DecimalBeyond64BitsIsRejected) {
  // strtoull saturates to 2^64 - 1, which once read as -1 and fit.
  const std::string err = errorOf("li R1, 99999999999999999999\nhalt\n");
  EXPECT_NE(err.find("number '99999999999999999999' does not fit in 64 bits"),
            std::string::npos)
      << err;
}

TEST_F(SrepNumberTest, HexBeyond64BitsIsRejected) {
  const std::string err = errorOf("lui R1, 0xFFFFFFFFFFFFFFFFFF\nhalt\n");
  EXPECT_NE(err.find("number 'FFFFFFFFFFFFFFFFFF' does not fit in 64 bits"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("immediate -1"), std::string::npos) << err;
}

TEST_F(SrepNumberTest, NegatedInt64MinIsOutOfRange) {
  // -(-2^63) wraps to -2^63 in unsigned arithmetic instead of overflowing.
  const std::string err = errorOf("li R1, -0x8000000000000000\nhalt\n");
  EXPECT_NE(err.find("immediate -9223372036854775808 out of range for a "
                     "16-bit signed field"),
            std::string::npos)
      << err;
  // The same spelling in a directive wraps the same way.
  DiagnosticEngine diags;
  auto prog = assembler_.assemble(".dm 0 -0x8000000000000000\nhalt\n", diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  ASSERT_EQ(prog->dataInit.size(), 1u);
  EXPECT_TRUE(prog->dataInit[0].second.isZero());
}

TEST_F(SrepNumberTest, LexErrorPointsAtTheNumber) {
  // The column is the malformed number's, not that of whatever token the
  // previous line's parse stopped at.
  EXPECT_NE(errorOf("halt\nli R2, 0x\n").find("2:8: error: bad number"),
            std::string::npos);
  EXPECT_NE(errorOf("halt\nli R2, 99999999999999999999\n")
                .find("2:8: error: number"),
            std::string::npos);
}

TEST_F(SrepNumberTest, RangeLimitsStillAssemble) {
  DiagnosticEngine diags;
  EXPECT_TRUE(assembler_
                  .assemble("li R1, -32768\nlui R2, 0xFFFF\n"
                            ".word 0xFFFFFFFFFFFFFFFF\nhalt\n",
                            diags)
                  .has_value())
      << diags.dump();
}

}  // namespace
}  // namespace isdl::sim
