// Coverage for the remaining ISDL storage kinds (paper §2.1.2): stack and
// memory-mapped I/O, exercised through a small machine with push/pop and
// port-write operations, on both the simulator and the hardware model.

#include <gtest/gtest.h>

#include "hw/datapath.h"
#include "isdl/parser.h"
#include "sim/xsim.h"
#include "synth/gatesim.h"

namespace isdl {
namespace {

const char* kStackIsdl = R"ISDL(
machine STACKY {
  section format { word_width = 16; }

  section storage {
    instruction_memory IM width 16 depth 64;
    stack ST width 16 depth 16;          # the stack storage kind
    memory_mapped_io IO width 16 depth 4;
    register SP width 4;                 # stack pointer (explicit state)
    register ACC width 16;
    program_counter PC width 8;
  }

  section global_definitions {
    token S8 immediate signed width 8;
    token PORT enum width 2 { "port0" = 0, "port1" = 1, "status" = 3 };
  }

  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation lit(i: S8) {
        encode { inst[15:12] = 4'd1; inst[7:0] = i; }
        action { ACC <- sext(i, 16); }
      }
      operation push() {
        encode { inst[15:12] = 4'd2; }
        action { ST[SP] <- ACC; SP <- SP + 4'd1; }
      }
      operation pop() {
        encode { inst[15:12] = 4'd3; }
        action { ACC <- ST[SP - 4'd1]; SP <- SP - 4'd1; }
      }
      operation addtop() {
        encode { inst[15:12] = 4'd4; }
        action { ACC <- ACC + ST[SP - 4'd1]; }
      }
      operation out(p: PORT) {
        encode { inst[15:12] = 4'd5; inst[11:10] = p; }
        action { IO[p] <- ACC; }
      }
      operation in(p: PORT) {
        encode { inst[15:12] = 4'd6; inst[11:10] = p; }
        action { ACC <- IO[p]; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }

  section optional { halt_operation = "EX.halt"; }
}
)ISDL";

TEST(StorageKinds, StackAndMmioSimulate) {
  auto m = parseAndCheckIsdl(kStackIsdl);
  EXPECT_EQ(m->storages[1].kind, StorageKind::Stack);
  EXPECT_EQ(m->storages[2].kind, StorageKind::MemoryMappedIO);

  sim::Xsim xsim(*m);
  sim::Assembler assembler(xsim.signatures());
  DiagnosticEngine diags;
  // (3 + 4) via the stack, result to port1; 4 left in ACC after pop.
  auto prog = assembler.assemble(R"(
lit 3
push
lit 4
push
pop
addtop
out port1
halt
)",
                                 diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  std::string err;
  ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
  ASSERT_EQ(xsim.run(1000).reason, sim::StopReason::Halted);
  xsim.drainPipeline();

  int io = m->findStorage("IO");
  int st = m->findStorage("ST");
  int sp = m->findStorage("SP");
  EXPECT_EQ(xsim.state().read(io, 1).toUint64(), 7u);  // 3 + 4
  EXPECT_EQ(xsim.state().read(st, 0).toUint64(), 3u);  // bottom of stack
  EXPECT_EQ(xsim.state().read(sp).toUint64(), 1u);     // one entry left

  // The hardware model implements the same machine.
  hw::HwModel model = hw::buildDatapath(*m, xsim.signatures());
  synth::GateSim gs(model.netlist);
  gs.loadMemory(model.storage[m->imemIndex].mem, prog->words);
  ASSERT_TRUE(gs.runUntil(model.haltedReg, 1000));
  EXPECT_EQ(gs.peekMemory(model.storage[io].mem, 1).toUint64(), 7u);
  EXPECT_EQ(gs.peekMemory(model.storage[st].mem, 0).toUint64(), 3u);
  EXPECT_EQ(gs.peekNet(model.storage[sp].reg).toUint64(), 1u);
}

TEST(StorageKinds, EnumTokenWithSparseValues) {
  // PORT skips value 2; disassembling an instruction carrying the hole must
  // be an illegal instruction, not a crash.
  auto m = parseAndCheckIsdl(kStackIsdl);
  DiagnosticEngine diags;
  sim::SignatureTable sigs(*m, diags);
  sim::Disassembler disasm(sigs);
  // out with p = 2 (not a member): opcode 5, p bits [11:10] = 2.
  std::vector<BitVector> mem = {BitVector(16, (5u << 12) | (2u << 10))};
  std::string err;
  sim::DecodedProgram decoded;
  EXPECT_FALSE(disasm.decodeAt(mem, 0, decoded, &err));
  EXPECT_NE(err.find("not a member"), std::string::npos);
  EXPECT_TRUE(decoded.ops.empty() && decoded.params.empty());
  // p = 3 ("status") decodes fine.
  mem[0] = BitVector(16, (5u << 12) | (3u << 10));
  ASSERT_TRUE(disasm.decodeAt(mem, 0, decoded, &err)) << err;
  EXPECT_EQ(disasm.render(decoded, 0), "out status");
}

TEST(StorageKinds, StackOverflowTrapsAtRuntime) {
  auto m = parseAndCheckIsdl(kStackIsdl);
  sim::Xsim xsim(*m);
  sim::Assembler assembler(xsim.signatures());
  DiagnosticEngine diags;
  // Pop from an empty stack: SP-1 wraps to 15 — legal index, reads zero; but
  // a runaway push loop cannot overflow the 16-deep stack silently either
  // (SP wraps, overwriting — architectural behaviour, not a trap). What DOES
  // trap is out-of-range access, covered by MINI's DM tests; here we verify
  // the wrap semantics explicitly.
  auto prog = assembler.assemble("pop\nhalt\n", diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  std::string err;
  ASSERT_TRUE(xsim.loadProgram(*prog, &err)) << err;
  ASSERT_EQ(xsim.run(100).reason, sim::StopReason::Halted);
  xsim.drainPipeline();
  int sp = m->findStorage("SP");
  EXPECT_EQ(xsim.state().read(sp).toUint64(), 15u);  // 0 - 1 wraps mod 16
}

}  // namespace
}  // namespace isdl
