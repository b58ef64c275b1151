// End-to-end tests of the XSIM simulator: two-phase VLIW semantics, latency
// and stall behaviour, bypass forwarding, branches, breakpoints, monitors,
// traces, statistics (paper §3), and what State::reset restores after every
// way of writing the state.

#include "sim/xsim.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/cli.h"
#include "test_machines.h"

namespace isdl::sim {
namespace {

class XsimTest : public ::testing::Test {
 protected:
  XsimTest() : machine_(parseAndCheckIsdl(testing::kMiniIsdl)), sim_(*machine_) {}

  void load(std::string_view asmText) {
    Assembler assembler(sim_.signatures());
    DiagnosticEngine diags;
    auto prog = assembler.assemble(asmText, diags);
    ASSERT_TRUE(prog.has_value()) << diags.dump();
    std::string err;
    ASSERT_TRUE(sim_.loadProgram(*prog, &err)) << err;
  }

  std::uint64_t reg(unsigned i) {
    int rf = machine_->findStorage("RF");
    return sim_.state().read(static_cast<unsigned>(rf), i).toUint64();
  }
  std::uint64_t dm(unsigned i) {
    int dmIdx = machine_->findStorage("DM");
    return sim_.state().read(static_cast<unsigned>(dmIdx), i).toUint64();
  }

  std::unique_ptr<Machine> machine_;
  Xsim sim_;
};

TEST_F(XsimTest, BasicArithmeticAndHalt) {
  load(R"(
li R1, 5
li R2, 7
add R3, R1, R2
halt
)");
  RunResult r = sim_.run(1000);
  EXPECT_EQ(r.reason, StopReason::Halted) << r.message;
  sim_.drainPipeline();
  EXPECT_EQ(reg(3), 12u);
  EXPECT_EQ(sim_.stats().instructions, 4u);
  EXPECT_EQ(sim_.stats().cycles, 4u);  // four single-cycle instructions
  EXPECT_EQ(sim_.stats().dataStallCycles, 0u);
}

TEST_F(XsimTest, TwoPhaseVliwSemanticsReadBeforeWrite) {
  // Both operations read the pre-cycle state: add sees old R1/R2, mv copies
  // the OLD R1 into R2 even though add writes R1 in the same instruction.
  load(R"(
li R1, 1
li R2, 2
{ add R1, R1, R2 | mv R2, R1 }
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(reg(1), 3u);  // 1 + 2
  EXPECT_EQ(reg(2), 1u);  // old R1
}

TEST_F(XsimTest, SideEffectsComputeFlagsFromOperands) {
  // add's side effect sets CARRY from the pre-cycle operands (side effects
  // read the same state as actions; their WRITES commit after action
  // writes): carry(0xFFFF, 1) = 1.
  load(R"(
li R1, -1
li R2, 1
add R3, R1, R2
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(reg(3), 0u);
  int cc = machine_->findStorage("CC");
  EXPECT_EQ(sim_.state().read(static_cast<unsigned>(cc)).toUint64() & 1u, 1u);
}

TEST_F(XsimTest, MemoryLoadStoreAndDataInit) {
  load(R"(
.dm 3 77
li R1, 3
ld R2, R1
nop
li R4, 9
st R4, R2
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(reg(2), 77u);
  EXPECT_EQ(dm(9), 77u);
}

TEST_F(XsimTest, LoadUseInterlockStallsExactly) {
  // ld: latency 2, stall 1 -> an immediately dependent add stalls 1 cycle.
  load(R"(
.dm 3 77
li R1, 3
ld R2, R1
add R3, R2, R2
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(reg(3), 154u);  // stall guarantees the NEW value is read
  EXPECT_EQ(sim_.stats().dataStallCycles, 1u);
  // li(1) + ld(1) + stall(1) + add(1) + halt(1) = 5 cycles.
  EXPECT_EQ(sim_.stats().cycles, 5u);
}

TEST_F(XsimTest, IndependentInstructionHidesLoadLatency) {
  load(R"(
.dm 3 77
li R1, 3
ld R2, R1
li R5, 1
add R3, R2, R2
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(reg(3), 154u);
  EXPECT_EQ(sim_.stats().dataStallCycles, 0u);  // latency fully hidden
}

TEST_F(XsimTest, BranchLoopAndTakenBranchSemantics) {
  load(R"(
      li R1, 0
      li R2, 3
loop: addi R1, #1
      beq R1, R2, done
      jmp loop
done: halt
)");
  RunResult r = sim_.run(10000);
  EXPECT_EQ(r.reason, StopReason::Halted) << r.message;
  sim_.drainPipeline();
  EXPECT_EQ(reg(1), 3u);
  // addi executed 3 times, beq 3 times, jmp twice.
  const Field& ex = machine_->fields[0];
  EXPECT_EQ(sim_.stats().opCount[0][ex.findOperation("addi")], 3u);
  EXPECT_EQ(sim_.stats().opCount[0][ex.findOperation("beq")], 3u);
  EXPECT_EQ(sim_.stats().opCount[0][ex.findOperation("jmp")], 2u);
}

TEST_F(XsimTest, NonTerminalRegAndImmOptionsExecute) {
  load(R"(
li R1, 10
li R2, 5
addi R1, R2
addi R1, #200
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(reg(1), 215u);
}

TEST_F(XsimTest, MultiCycleOperationsAdvanceCycleCounter) {
  load("jmp 1\nhalt\n");  // jmp: cycle = 2
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  EXPECT_EQ(sim_.stats().cycles, 3u);  // 2 (jmp) + 1 (halt)
}

TEST_F(XsimTest, PcOutOfRangeStops) {
  load("jmp 100\n");
  RunResult r = sim_.run(1000);
  EXPECT_EQ(r.reason, StopReason::PcOutOfRange);
}

TEST_F(XsimTest, IllegalInstructionStops) {
  // Opcode 20 in EX is unassigned: 20 << 27 = 0xA0000000.
  load("nop\n.word 0xA0000000\n");
  RunResult r = sim_.run(1000);
  EXPECT_EQ(r.reason, StopReason::IllegalInstruction);
  EXPECT_NE(r.message.find("illegal instruction"), std::string::npos);
}

TEST_F(XsimTest, BreakpointsStopBeforeExecutionAndResume) {
  load(R"(
li R1, 1
li R2, 2
add R3, R1, R2
halt
)");
  sim_.addBreakpoint(2);
  std::uint64_t hookAddr = 99, hookInstructions = 99;
  // The hook (the CLI's attached commands) sees the statistics so far.
  sim_.setBreakpointHook([&](std::uint64_t a) {
    hookAddr = a;
    hookInstructions = sim_.stats().instructions;
  });
  RunResult r = sim_.run(1000);
  EXPECT_EQ(r.reason, StopReason::Breakpoint);
  EXPECT_EQ(hookAddr, 2u);
  EXPECT_EQ(hookInstructions, 2u);
  EXPECT_EQ(sim_.state().pc(), 2u);
  sim_.drainPipeline();
  EXPECT_EQ(reg(3), 0u);  // add not yet executed
  // Resume: the breakpointed instruction now executes.
  r = sim_.run(1000);
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(sim_.stats().instructions, 4u);
  sim_.drainPipeline();
  EXPECT_EQ(reg(3), 3u);
}

TEST_F(XsimTest, SteppingIgnoresBreakpoints) {
  load("li R1, 1\nli R2, 2\nadd R3, R1, R2\nhalt\n");
  sim_.addBreakpoint(1);
  RunResult r = sim_.step(3);
  EXPECT_EQ(r.reason, StopReason::MaxInstructions);
  EXPECT_EQ(sim_.state().pc(), 3u);
  EXPECT_EQ(sim_.stats().instructions, 3u);
}

TEST_F(XsimTest, ExecutionAddressTrace) {
  load(R"(
      li R1, 1
      jmp skip
      nop
skip: halt
)");
  std::vector<std::uint64_t> trace;
  sim_.setTraceCallback([&](std::uint64_t a) { trace.push_back(a); });
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  EXPECT_EQ(trace, (std::vector<std::uint64_t>{0, 1, 3}));
}

TEST_F(XsimTest, MonitorsFireOnChangesOnly) {
  load("li R1, 5\nli R1, 5\nli R1, 6\nhalt\n");
  int rf = machine_->findStorage("RF");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> events;
  sim_.monitors().add(static_cast<unsigned>(rf), 1u,
                      [&](const WriteEvent& ev) {
                        events.emplace_back(ev.oldValue.toUint64(),
                                            ev.newValue.toUint64());
                      });
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  // 0->5 then 5->6; the redundant write of 5 fires nothing.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<std::uint64_t, std::uint64_t>{0, 5}));
  EXPECT_EQ(events[1], (std::pair<std::uint64_t, std::uint64_t>{5, 6}));
}

TEST_F(XsimTest, MonitorElementFilter) {
  load("li R1, 5\nli R2, 9\nhalt\n");
  int rf = machine_->findStorage("RF");
  int fires = 0;
  sim_.monitors().add(static_cast<unsigned>(rf), 2u,
                      [&](const WriteEvent&) { ++fires; });
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(fires, 1);
}

TEST_F(XsimTest, ResetReloadsProgramAndState) {
  load("li R1, 5\nhalt\n");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(reg(1), 5u);
  sim_.reset();
  EXPECT_EQ(sim_.state().pc(), 0u);
  EXPECT_EQ(reg(1), 0u);
  EXPECT_EQ(sim_.stats().instructions, 0u);
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();
  EXPECT_EQ(reg(1), 5u);
}

// A rejected image changes nothing: the previous program's state stays, and
// reset() replays the previous program, not the rejected one.
TEST_F(XsimTest, RejectedLoadKeepsThePreviousProgram) {
  load("li R1, 5\nhalt\n");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  sim_.drainPipeline();

  Assembler assembler(sim_.signatures());
  DiagnosticEngine diags;
  auto farData = assembler.assemble(".dm 5000 1\nli R1, 7\nhalt\n", diags);
  ASSERT_TRUE(farData.has_value()) << diags.dump();
  AssembledProgram tooLong = *farData;
  tooLong.dataInit.clear();
  tooLong.words.resize(257, tooLong.words[0]);
  AssembledProgram undecodable = tooLong;
  undecodable.words = {BitVector(32, 0xA0000000)};  // unassigned EX opcode

  const std::pair<const AssembledProgram*, const char*> rejected[] = {
      {&*farData, ".dm address 5000 out of range"},
      {&tooLong, "program (257 words) does not fit in instruction memory"},
      {&undecodable, "no decodable instruction at address 0"},
  };
  for (const auto& [prog, message] : rejected) {
    SCOPED_TRACE(message);
    std::string err;
    EXPECT_FALSE(sim_.loadProgram(*prog, &err));
    EXPECT_NE(err.find(message), std::string::npos) << err;
    EXPECT_EQ(reg(1), 5u);
    EXPECT_EQ(sim_.stats().instructions, 2u);

    sim_.reset();
    EXPECT_EQ(reg(1), 0u);
    EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
    sim_.drainPipeline();
    EXPECT_EQ(reg(1), 5u);
    EXPECT_EQ(sim_.stats().instructions, 2u);
  }
}

// With no data_memory a .dm record has nowhere to go: the load is rejected
// and reset() replays the previous program only.
TEST(XsimLoad, DataRecordWithoutDataMemoryIsRejected) {
  auto m = parseAndCheckIsdl(testing::kWideIsdl);
  Xsim sim(*m);
  Assembler assembler(sim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble("li R1, 5\nhalt\n", diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  std::string err;
  ASSERT_TRUE(sim.loadProgram(*prog, &err)) << err;

  AssembledProgram withData = *prog;
  withData.dataInit.emplace_back(0, BitVector(8, 1));
  EXPECT_FALSE(sim.loadProgram(withData, &err));
  EXPECT_EQ(err, ".dm record but the machine has no data_memory");
  sim.reset();
  EXPECT_EQ(sim.run(1000).reason, StopReason::Halted);
  sim.drainPipeline();
  EXPECT_EQ(sim.state().read(unsigned(m->findStorage("R")), 1).toUint64(), 5u);
}

TEST_F(XsimTest, FieldUtilizationStatistics) {
  load(R"(
{ add R1, R1, R2 | mv R3, R4 }
add R1, R1, R2
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, StopReason::Halted);
  // EX used in all 3 instructions (halt counts: it is not EX's nop).
  EXPECT_EQ(sim_.stats().fieldUtilization[0], 3u);
  // MV used only in the first.
  EXPECT_EQ(sim_.stats().fieldUtilization[1], 1u);
}

TEST_F(XsimTest, RunWithCycleBudgetStops) {
  load("jmp 0\n");  // infinite loop
  RunResult r = sim_.run(50);
  EXPECT_EQ(r.reason, StopReason::MaxCycles);
  EXPECT_GE(sim_.stats().cycles, 50u);
}

// --- bypass (Stall == 0, Latency > 1) vs interlock (Stall > 0) --------------

TEST(XsimBypass, FullBypassForwardsWithoutStalls) {
  // mul: latency 3, stall 0 => dependent consumer gets the value bypassed
  // with zero stall cycles. Identical code with an interlocked producer
  // (stall 2) pays 2 stall cycles. Same final values either way.
  const char* archTemplate = R"(
machine B {
  section format { word_width = 32; }
  section storage {
    instruction_memory IM width 32 depth 64;
    register_file RF width 16 depth 8;
    program_counter PC width 16;
  }
  section global_definitions {
    token REG enum width 3 prefix "R" range 0 .. 7;
    token S8 immediate signed width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[31:27] = 5'd0; } }
      operation li(d: REG, i: S8) {
        encode { inst[31:27] = 5'd6; inst[26:24] = d; inst[23:16] = i; }
        action { RF[d] <- sext(i, 16); }
      }
      operation mul(d: REG, a: REG, b: REG) {
        encode { inst[31:27] = 5'd9; inst[26:24] = d; inst[23:21] = a;
                 inst[20:18] = b; }
        action { RF[d] <- RF[a] * RF[b]; }
        costs { stall = STALLVAL; }
        timing { latency = 3; }
      }
      operation halt() { encode { inst[31:27] = 5'd31; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)";
  auto runWith = [&](const char* stall, std::uint64_t* stallsOut) {
    std::string src = archTemplate;
    src.replace(src.find("STALLVAL"), 8, stall);
    auto m = parseAndCheckIsdl(src);
    Xsim sim(*m);
    Assembler assembler(sim.signatures());
    DiagnosticEngine diags;
    auto prog = assembler.assemble(R"(
li R1, 3
li R2, 4
mul R3, R1, R2
mul R4, R3, R1
halt
)",
                                   diags);
    EXPECT_TRUE(prog.has_value()) << diags.dump();
    std::string err;
    EXPECT_TRUE(sim.loadProgram(*prog, &err)) << err;
    EXPECT_EQ(sim.run(1000).reason, StopReason::Halted);
    sim.drainPipeline();
    *stallsOut = sim.stats().dataStallCycles;
    int rf = m->findStorage("RF");
    return sim.state().read(static_cast<unsigned>(rf), 4).toUint64();
  };

  std::uint64_t bypassStalls = 0, interlockStalls = 0;
  EXPECT_EQ(runWith("0", &bypassStalls), 36u);     // (3*4)*3, forwarded
  EXPECT_EQ(runWith("2", &interlockStalls), 36u);  // same value, stalled
  EXPECT_EQ(bypassStalls, 0u);
  EXPECT_EQ(interlockStalls, 2u);
}

// --- structural hazards (Usage) -----------------------------------------------

TEST(XsimStructural, UsageKeepsUnitBusy) {
  auto m = parseAndCheckIsdl(R"(
machine U {
  section format { word_width = 32; }
  section storage {
    instruction_memory IM width 32 depth 64;
    register_file RF width 16 depth 8;
    program_counter PC width 16;
  }
  section global_definitions {
    token REG enum width 3 prefix "R" range 0 .. 7;
    token S8 immediate signed width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[31:27] = 5'd0; } }
      operation slow(d: REG, i: S8) {
        encode { inst[31:27] = 5'd1; inst[26:24] = d; inst[23:16] = i; }
        action { RF[d] <- sext(i, 16); }
        timing { usage = 3; }
      }
      operation halt() { encode { inst[31:27] = 5'd31; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)");
  Xsim sim(*m);
  Assembler assembler(sim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble("slow R1, 1\nslow R2, 2\nhalt\n", diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  std::string err;
  ASSERT_TRUE(sim.loadProgram(*prog, &err)) << err;
  EXPECT_EQ(sim.run(1000).reason, StopReason::Halted);
  // slow issues at 0; unit busy until 3; second slow stalls 2 cycles.
  EXPECT_EQ(sim.stats().structStallCycles, 4u);  // 2 (slow2) + 2 (halt)
  sim.drainPipeline();
  int rf = m->findStorage("RF");
  EXPECT_EQ(sim.state().read(static_cast<unsigned>(rf), 2).toUint64(), 2u);
}

// --- multi-word instructions ---------------------------------------------------

TEST(XsimMultiWord, TwoWordInstructionFetchesAndAdvances) {
  auto m = parseAndCheckIsdl(R"(
machine W {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 64;
    register_file RF width 16 depth 4;
    program_counter PC width 16;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token U16 immediate unsigned width 16;
    token S4 immediate signed width 4;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation limm(d: REG, i: U16) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[31:16] = i; }
        action { RF[d] <- i; }
        costs { size = 2; }
      }
      operation li(d: REG, i: S4) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:6] = i; }
        action { RF[d] <- sext(i, 16); }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)");
  Xsim sim(*m);
  Assembler assembler(sim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble("limm R1, 0xBEEF\nli R2, 3\nhalt\n", diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  ASSERT_EQ(prog->words.size(), 4u);
  EXPECT_EQ(prog->words[1].toUint64(), 0xBEEFu);  // extension word
  std::string err;
  ASSERT_TRUE(sim.loadProgram(*prog, &err)) << err;
  EXPECT_EQ(sim.run(1000).reason, StopReason::Halted);
  sim.drainPipeline();
  int rf = m->findStorage("RF");
  EXPECT_EQ(sim.state().read(static_cast<unsigned>(rf), 1).toUint64(),
            0xBEEFu);
  EXPECT_EQ(sim.state().read(static_cast<unsigned>(rf), 2).toUint64(), 3u);
  EXPECT_EQ(sim.stats().instructions, 3u);
}

// --- state writes and reset ---------------------------------------------------

TEST_F(XsimTest, WriteOfMismatchedWidthIsRejected) {
  load("halt\n");
  const unsigned rf = static_cast<unsigned>(machine_->findStorage("RF"));
  sim_.state().write(rf, 1, BitVector(16, 7), 0);
  try {
    sim_.state().write(rf, 1, BitVector(32, 9), 0);
    FAIL() << "a 32-bit write to a 16-bit register file was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("RF"), std::string::npos)
        << e.what();
  }
  // Neither the width nor the value of the element changed.
  EXPECT_EQ(sim_.state().read(rf, 1), BitVector(16, 7));
}

// A read past the end of a memory traps on both engines, and the range check
// comes before the profile's read heatmap counts it: a count first would
// index past the heatmap's row (evaluate() always profiles).
TEST(XsimRuntime, OutOfRangeReadTrapsWithProfilingOn) {
  auto m = parseAndCheckIsdl(R"(
machine OOB {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    data_memory DM width 8 depth 4;
    register_file R width 8 depth 4;
    program_counter PC width 8;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token U8 immediate unsigned width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation li(d: REG, i: U8) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- i; }
      }
      operation ld(d: REG, a: REG) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:8] = a; }
        action { R[d] <- DM[R[a]]; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)");
  for (bool uop : {true, false}) {
    SCOPED_TRACE(uop ? "uop" : "interp");
    Xsim sim(*m);
    sim.setUopEnabled(uop);
    sim.enableProfile();
    Assembler assembler(sim.signatures());
    DiagnosticEngine diags;
    auto prog = assembler.assemble("li R1, 200\nld R2, R1\nhalt\n", diags);
    ASSERT_TRUE(prog.has_value()) << diags.dump();
    ASSERT_TRUE(sim.loadProgram(*prog));
    RunResult r = sim.run(100);
    EXPECT_EQ(r.reason, StopReason::RuntimeError);
    EXPECT_NE(r.message.find("DM[200] is out of range"), std::string::npos)
        << r.message;
  }
}

/// Assembles `source` for `sim` and loads it; the program is returned so
/// expectLoadedState can tell reloaded words from leftovers.
AssembledProgram loadSource(Xsim& sim, const char* source) {
  Assembler assembler(sim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble(source, diags);
  EXPECT_TRUE(prog.has_value()) << diags.dump();
  if (!prog) return {};
  std::string err;
  EXPECT_TRUE(sim.loadProgram(*prog, &err)) << err;
  return *prog;
}

/// Every location of `sim` is zero except the program words in instruction
/// memory and the .dm records: the state reset() must restore.
void expectLoadedState(const Xsim& sim, const AssembledProgram& prog) {
  const Machine& m = sim.machine();
  std::map<std::pair<int, std::uint64_t>, BitVector> expected;
  for (std::size_t i = 0; i < prog.words.size(); ++i)
    expected[{m.imemIndex, i}] = prog.words[i];
  for (const auto& [addr, value] : prog.dataInit)
    expected[{m.dataMemoryIndex(), addr}] = value;
  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    const StorageDef& st = m.storages[si];
    for (std::uint64_t e = 0; e < st.depth; ++e) {
      auto it = expected.find({int(si), e});
      EXPECT_EQ(sim.state().read(unsigned(si), e),
                it == expected.end() ? BitVector(st.width) : it->second)
          << m.name << " " << st.name << "[" << e << "]";
    }
  }
}

TEST(XsimReset, RestoresTheLoadedStateAfterEveryWritePath) {
  auto m = parseAndCheckIsdl(testing::kMiniIsdl);
  Xsim sim(*m);
  // Committed whole-element writes (li, add, ld), a slice write (add's
  // CARRY side effect writes CC[0:0]), a store over a .dm record and a
  // branch that commits PC.
  const AssembledProgram prog = loadSource(sim, R"(
li R1, -1
li R2, 1
add R3, R1, R2
li R5, 3
st R5, R1
ld R4, R5
beq R1, R1, 8
.org 8
halt
.dm 3 77
.dm 200 5
)");
  // A monitor armed on every write of the register file.
  unsigned fires = 0;
  sim.monitors().add(unsigned(m->findStorage("RF")), std::nullopt,
                     [&](const WriteEvent&) { ++fires; });
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    ASSERT_EQ(sim.run(1000).reason, StopReason::Halted);
    sim.drainPipeline();
    EXPECT_EQ(sim.state().read(unsigned(m->findStorage("CC"))).toUint64(),
              1u);
    EXPECT_EQ(sim.state().read(unsigned(m->dataMemoryIndex()), 3).toUint64(),
              0xffffu);
    // CLI writes beyond the program and the data records.
    std::ostringstream out;
    Cli cli(sim, out);
    cli.execute("set DM 255 0x1234");
    cli.execute("set IM 255 0xdeadbeef");
    cli.execute("set RF 7 9");
    EXPECT_EQ(cli.errorCount(), 0u) << out.str();
    sim.reset();
    expectLoadedState(sim, prog);
  }
  EXPECT_GT(fires, 0u);
}

TEST(XsimReset, RestoresWideStorages) {
  // 96-bit registers: two words per element, committed by the interpreter.
  auto m = parseAndCheckIsdl(testing::kWideIsdl);
  Xsim sim(*m);
  const AssembledProgram prog = loadSource(sim, testing::kWideProgram);
  sim.monitors().add(unsigned(m->findStorage("R")), std::nullopt,
                     [](const WriteEvent&) {});
  ASSERT_EQ(sim.run(1000).reason, StopReason::Halted);
  sim.drainPipeline();
  EXPECT_EQ(sim.state().read(unsigned(m->findStorage("R")), 3),
            BitVector::fromString(96, "0x10000000000000000"));
  sim.reset();
  expectLoadedState(sim, prog);

  // SPAM's 128-bit instruction memory, written past the program.
  auto spam = archs::loadSpam();
  Xsim spamSim(*spam);
  const AssembledProgram spamProg =
      loadSource(spamSim, archs::spamBenchmarks()[0].source);
  const unsigned imem = unsigned(spam->imemIndex);
  spamSim.state().write(imem, spamSim.state().depth(imem) - 1,
                        BitVector::allOnes(128), 0);
  ASSERT_EQ(spamSim.run(archs::spamBenchmarks()[0].maxCycles).reason,
            StopReason::Halted);
  spamSim.reset();
  expectLoadedState(spamSim, spamProg);
}

}  // namespace
}  // namespace isdl::sim
