// Error-path coverage for the assembler and the XSIM batch CLI: malformed
// input must produce a clean diagnostic (never a crash, never a silently
// wrong program). Each assembler case pins the exact message; the CLI cases
// assert the error counter and the printed message for malformed batch
// scripts; the oversize-machine cases pin a clean report from the simulator
// and the evaluation pipeline.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "explore/evaluate.h"
#include "isdl/parser.h"
#include "sim/assembler.h"
#include "sim/cli.h"
#include "sim/xsim.h"
#include "support/strings.h"
#include "test_machines.h"

namespace isdl {
namespace {

// --- assembler ---------------------------------------------------------------

class AsmErrorTest : public ::testing::Test {
 protected:
  AsmErrorTest()
      : machine_(parseAndCheckIsdl(testing::kMiniIsdl)),
        xsim_(*machine_),
        assembler_(xsim_.signatures()) {}

  /// Assembles a bad program and returns the diagnostics; asserts failure.
  std::string reject(const std::string& source) {
    DiagnosticEngine diags;
    auto prog = assembler_.assemble(source, diags);
    EXPECT_FALSE(prog.has_value()) << "bad source was accepted:\n" << source;
    EXPECT_TRUE(diags.hasErrors());
    return diags.dump();
  }

  void expectDiag(const std::string& source, const std::string& message) {
    std::string dump = reject(source);
    EXPECT_NE(dump.find(message), std::string::npos)
        << "expected:\n  " << message << "\ngot:\n" << dump;
  }

  std::unique_ptr<Machine> machine_;
  sim::Xsim xsim_;
  sim::Assembler assembler_;
};

TEST_F(AsmErrorTest, UnknownMnemonic) {
  expectDiag("frobnicate R1, R2\nhalt\n",
             "unknown operation 'frobnicate'");
}

TEST_F(AsmErrorTest, OperandsDontMatchSyntax) {
  expectDiag("add R1, R2\nhalt\n", "operands do not match the syntax of 'add'");
}

TEST_F(AsmErrorTest, BadRegisterName) {
  expectDiag("add R1, R2, R9\nhalt\n",
             "operands do not match the syntax of 'add'");
}

TEST_F(AsmErrorTest, ImmediateOutOfRange) {
  // S8 is signed 8-bit; the assembler admits [-128, 256) so hex bit
  // patterns still work, but 300 is out of range under any reading.
  expectDiag("li R1, 300\nhalt\n",
             "immediate 300 out of range for a 8-bit");
}

TEST_F(AsmErrorTest, ConstraintViolatingBundle) {
  // MINI: never EX.add & MV.mvi.
  expectDiag("{ add R1, R2, R3 | mvi R4, 5 }\nhalt\n",
             "instruction violates constraint: never EX.add & MV.mvi");
}

TEST_F(AsmErrorTest, MalformedBundleMissingBrace) {
  expectDiag("{ add R1, R2, R3 \nhalt\n", "expected '}' or '|'");
}

TEST_F(AsmErrorTest, DoubleOccupiedField) {
  expectDiag("{ add R1, R2, R3 | sub R4, R5, R6 }\nhalt\n",
             "unknown operation 'sub' (or its field is already occupied)");
}

TEST_F(AsmErrorTest, DuplicateLabel) {
  expectDiag("loop: add R1, R2, R3\nloop: halt\n", "duplicate label 'loop'");
}

TEST_F(AsmErrorTest, UndefinedLabel) {
  expectDiag("beq R1, R2, nowhere\nhalt\n", "undefined label 'nowhere'");
}

TEST_F(AsmErrorTest, TrailingJunk) {
  expectDiag("halt garbage\n", "trailing junk 'garbage'");
}

TEST_F(AsmErrorTest, OrgBackwards) {
  expectDiag(".org 4\nhalt\n.org 2\nhalt\n", ".org cannot move backwards");
}

TEST_F(AsmErrorTest, OrgWithoutNumber) {
  expectDiag(".org next\nhalt\n", "expected a number");
}

TEST_F(AsmErrorTest, ErrorsCarryLineNumbers) {
  DiagnosticEngine diags;
  auto prog = assembler_.assemble("add R1, R2, R3\nbogus\nhalt\n", diags);
  EXPECT_FALSE(prog.has_value());
  ASSERT_FALSE(diags.all().empty());
  EXPECT_EQ(diags.all()[0].loc.line, 2u);
}

TEST_F(AsmErrorTest, FailFastReportsTheFirstError) {
  // Pass 1 is fail-fast: exactly one diagnostic, for the first bad line.
  DiagnosticEngine diags;
  auto prog = assembler_.assemble("bogus1\nbogus2\nhalt\n", diags);
  EXPECT_FALSE(prog.has_value());
  EXPECT_EQ(diags.errorCount(), 1u);
  EXPECT_NE(diags.dump().find("bogus1"), std::string::npos);
}

TEST_F(AsmErrorTest, OrgPastInstructionMemory) {
  expectDiag(".org 300\nhalt\n",
             ".org 300 is past the end of instruction memory (depth 256)");
}

TEST_F(AsmErrorTest, OrgTrailingJunk) {
  expectDiag(".org 4 junk\nhalt\n", "trailing junk 'junk'");
}

// The simulator executable reports an .org that would wrap the location
// counter as an assembly error and exits with status 1; the wrapped counter
// used to size an empty image and then write past it.
TEST(XsimExecutable, WrappingOrgExitsWithOne) {
  const std::string dir = ::testing::TempDir();
  const std::string source = dir + "xsim_org_wrap.s";
  const std::string output = dir + "xsim_org_wrap.out";
  std::ofstream(source) << ".org 18446744073709551615\nhalt\n";
  const int status = std::system(cat(XSIM_BINARY, " --arch srep --asm ",
                                     source, " --run > ", output, " 2>&1")
                                     .c_str());
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::stringstream printed;
  printed << std::ifstream(output).rdbuf();
  EXPECT_NE(printed.str().find(
                "1:6: error: .org 18446744073709551615 is past the end of "
                "instruction memory (depth 1024)"),
            std::string::npos)
      << printed.str();
}

// --- batch CLI ---------------------------------------------------------------

class CliErrorTest : public ::testing::Test {
 protected:
  CliErrorTest() : machine_(parseAndCheckIsdl(testing::kMiniIsdl)) {}

  /// Runs a batch script and returns {errors, output}.
  std::pair<unsigned, std::string> runScript(const std::string& script) {
    sim::Xsim xsim(*machine_);
    std::ostringstream out;
    sim::Cli cli(xsim, out);
    unsigned errors = cli.runScript(script);
    return {errors, out.str()};
  }

  std::unique_ptr<Machine> machine_;
};

TEST_F(CliErrorTest, UnknownCommand) {
  auto [errors, out] = runScript("frobnicate\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST_F(CliErrorTest, ExamineUnknownStorage) {
  auto [errors, out] = runScript("x BOGUS\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("unknown storage 'BOGUS'"), std::string::npos);
}

TEST_F(CliErrorTest, ExamineRegisterFileWithoutIndex) {
  auto [errors, out] = runScript("x RF\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("needs an index"), std::string::npos);
}

TEST_F(CliErrorTest, AsmMissingFile) {
  auto [errors, out] = runScript("asm\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("asm needs a file name"), std::string::npos);
}

TEST_F(CliErrorTest, AsmUnreadableFile) {
  auto [errors, out] = runScript("asm /nonexistent/path.s\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("cannot open"), std::string::npos);
}

TEST_F(CliErrorTest, BadEngineSelection) {
  auto [errors, out] = runScript("engine bogus\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("unknown engine 'bogus' (expected 'uop' or 'interp')"),
            std::string::npos);
}

TEST_F(CliErrorTest, SetWithoutValue) {
  auto [errors, out] = runScript("set PC\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("set needs a value"), std::string::npos);
}

TEST_F(CliErrorTest, BreakWithoutAddress) {
  auto [errors, out] = runScript("break\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("break needs an address"), std::string::npos);
}

TEST_F(CliErrorTest, MalformedScriptAccumulatesErrors) {
  auto [errors, out] = runScript("frobnicate\nx BOGUS\nengine bogus\n");
  EXPECT_EQ(errors, 3u);
}

TEST_F(CliErrorTest, ErrorsDoNotAbortTheScript) {
  // A bad command must not stop the batch: the final good command runs.
  auto [errors, out] = runScript("frobnicate\nx PC\n");
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("PC"), std::string::npos);
}

// --- oversize machines -----------------------------------------------------

// 2^63 elements of two words each: the word count wraps to 0 in 64 bits, so
// a simulator that multiplied without checking would allocate nothing and
// then write out of bounds. It must refuse before allocating.
constexpr const char* kOversizeIsdl = R"ISDL(
machine HUGE {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    data_memory DM width 128 depth 9223372036854775808;
    program_counter PC width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)ISDL";

TEST(OversizeMachine, XsimRefusesBeforeAllocating) {
  auto m = parseAndCheckIsdl(kOversizeIsdl);
  ASSERT_EQ(m->storages[m->dataMemoryIndex()].depth, std::uint64_t{1} << 63);
  try {
    sim::Xsim xsim(*m);
    FAIL() << "a 2^63 x 128-bit data memory was accepted";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("DM"), std::string::npos)
        << e.what();
  }
}

TEST(OversizeMachine, EvaluateReportsAnError) {
  explore::Evaluation ev = explore::evaluateIsdl(kOversizeIsdl, "halt\n");
  EXPECT_FALSE(ev.ok);
  EXPECT_NE(ev.error.find("DM"), std::string::npos) << ev.error;
}

}  // namespace
}  // namespace isdl
