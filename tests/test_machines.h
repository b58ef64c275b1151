// Shared ISDL sources used across the test suite. MINI is a small two-field
// VLIW that exercises every language feature: enum and immediate tokens, a
// non-terminal with register and immediate options, aliases, all storage
// kinds the simulator cares about, side effects, costs/timing and a
// constraint.

#ifndef ISDL_TESTS_TEST_MACHINES_H
#define ISDL_TESTS_TEST_MACHINES_H

namespace isdl::testing {

inline constexpr const char* kMiniIsdl = R"ISDL(
machine MINI {
  section format { word_width = 32; }

  section storage {
    instruction_memory IM width 32 depth 256;
    data_memory DM width 16 depth 256;
    register_file RF width 16 depth 8;
    program_counter PC width 16;
    control_register CC width 2;
    alias CARRY = CC[0:0];
    alias SP = RF[7];
  }

  section global_definitions {
    token REG enum width 3 prefix "R" range 0 .. 7;
    token U8 immediate unsigned width 8;
    token S8 immediate signed width 8;

    nonterminal SRC returns width 9 {
      option reg(r: REG) {
        syntax r;
        encode { $$[8] = 0; $$[7:3] = 5'd0; $$[2:0] = r; }
        value { RF[r] }
      }
      option imm(i: U8) {
        syntax "#" i;
        encode { $$[8] = 1; $$[7:0] = i; }
        value { zext(i, 16) }
      }
    }
  }

  section instruction_set {
    field EX {
      operation nop() {
        encode { inst[31:27] = 5'd0; }
      }
      operation add(d: REG, a: REG, b: REG) {
        encode { inst[31:27] = 5'd1; inst[26:24] = d; inst[23:21] = a;
                 inst[20:18] = b; }
        action { RF[d] <- RF[a] + RF[b]; }
        side_effect { CARRY <- carry(RF[a], RF[b]); }
      }
      operation addi(d: REG, s: SRC) {
        encode { inst[31:27] = 5'd2; inst[26:24] = d; inst[23:15] = s; }
        action { RF[d] <- RF[d] + s; }
      }
      operation sub(d: REG, a: REG, b: REG) {
        encode { inst[31:27] = 5'd3; inst[26:24] = d; inst[23:21] = a;
                 inst[20:18] = b; }
        action { RF[d] <- RF[a] - RF[b]; }
      }
      operation ld(d: REG, a: REG) {
        encode { inst[31:27] = 5'd4; inst[26:24] = d; inst[23:21] = a; }
        action { RF[d] <- DM[RF[a][7:0]]; }
        costs { cycle = 1; stall = 1; }
        timing { latency = 2; }
      }
      operation st(a: REG, v: REG) {
        encode { inst[31:27] = 5'd5; inst[26:24] = a; inst[23:21] = v; }
        action { DM[RF[a][7:0]] <- RF[v]; }
      }
      operation li(d: REG, i: S8) {
        encode { inst[31:27] = 5'd6; inst[26:24] = d; inst[23:16] = i; }
        action { RF[d] <- sext(i, 16); }
      }
      operation beq(a: REG, b: REG, t: U8) {
        encode { inst[31:27] = 5'd7; inst[26:24] = a; inst[23:21] = b;
                 inst[20:13] = t; }
        action { if (RF[a] == RF[b]) { PC <- zext(t, 16); } }
        costs { cycle = 2; }
      }
      operation jmp(t: U8) {
        encode { inst[31:27] = 5'd8; inst[26:19] = t; }
        action { PC <- zext(t, 16); }
        costs { cycle = 2; }
      }
      operation halt() {
        encode { inst[31:27] = 5'd31; }
      }
    }
    field MV {
      operation mnop() {
        encode { inst[8:6] = 3'd0; }
      }
      operation mv(d: REG, a: REG) {
        encode { inst[8:6] = 3'd1; inst[5:3] = d; inst[2:0] = a; }
        action { RF[d] <- RF[a]; }
      }
      operation mvi(d: REG, i: S8) {
        encode { inst[8:6] = 3'd2; inst[5:3] = d; inst[16:9] = i; }
        action { RF[d] <- sext(i, 16); }
      }
    }
  }

  section constraints {
    // Encoding conflicts: these pairs set overlapping instruction bits.
    never EX.addi & MV.mvi;
    never EX.li & MV.mvi;
    never EX.beq & MV.mvi;
    // Pure architectural restriction (no encoding conflict): exercises
    // constraint checking independent of bit collisions.
    never EX.add & MV.mvi;
  }

  section optional {
    halt_operation = "EX.halt";
    description = "two-field test VLIW";
  }
}
)ISDL";

/// W64: 64-bit registers and the operators whose corner cases sit at the
/// 64-bit boundary; kW64Program drives them. Signed division of INT64_MIN
/// by -1 wraps (quotient INT64_MIN, remainder 0), and float -> int
/// saturates at both ends even though 2^63 - 1 has no double.
inline constexpr const char* kW64Isdl = R"ISDL(
machine W64 {
  section format { word_width = 16; }

  section storage {
    instruction_memory IM width 16 depth 64;
    register_file R width 64 depth 8;
    program_counter PC width 8;
  }

  section global_definitions {
    token REG enum width 3 prefix "R" range 0 .. 7;
    token S6 immediate signed width 6;
    token U6 immediate unsigned width 6;
  }

  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation li(d: REG, i: S6) {
        encode { inst[15:12] = 4'd1; inst[11:9] = d; inst[5:0] = i; }
        action { R[d] <- sext(i, 64); }
      }
      operation shl(d: REG, a: REG, n: U6) {
        encode { inst[15:12] = 4'd2; inst[11:9] = d; inst[8:6] = a;
                 inst[5:0] = n; }
        action { R[d] <- R[a] << n; }
      }
      operation sdiv(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd3; inst[11:9] = d; inst[8:6] = a;
                 inst[5:3] = b; }
        action { R[d] <- sdiv(R[a], R[b]); }
      }
      operation srem(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd4; inst[11:9] = d; inst[8:6] = a;
                 inst[5:3] = b; }
        action { R[d] <- srem(R[a], R[b]); }
      }
      operation itof(d: REG, a: REG) {
        encode { inst[15:12] = 4'd5; inst[11:9] = d; inst[8:6] = a; }
        action { R[d] <- itof(R[a], 64); }
      }
      operation fmul(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd6; inst[11:9] = d; inst[8:6] = a;
                 inst[5:3] = b; }
        action { R[d] <- fmul(R[a], R[b]); }
      }
      operation ftoi(d: REG, a: REG) {
        encode { inst[15:12] = 4'd7; inst[11:9] = d; inst[8:6] = a; }
        action { R[d] <- ftoi(R[a], 64); }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }

  section optional { halt_operation = "EX.halt"; }
}
)ISDL";

/// Final state: R1 = R2 = INT64_MIN, R3 = -1, R4 = 0, R5 = 2^62,
/// R6 = 2^124 as a double, R7 = INT64_MAX, R0 = INT64_MIN.
inline constexpr const char* kW64Program = R"(
        li R1, 1
        shl R1, R1, 63
        li R3, -1
        sdiv R2, R1, R3
        srem R4, R1, R3
        li R5, 1
        shl R5, R5, 62
        itof R6, R5
        fmul R6, R6, R6
        ftoi R7, R6
        itof R0, R1
        fmul R0, R0, R6
        ftoi R0, R0
        halt
)";

/// WIDE: 96-bit registers, wider than every narrow path; kWideProgram
/// carries an add across bit 64.
inline constexpr const char* kWideIsdl = R"ISDL(
machine WIDE {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    register_file R width 96 depth 4;
    program_counter PC width 8;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    token S8 immediate signed width 8;
    token U8 immediate unsigned width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation li(d: REG, i: S8) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[7:0] = i; }
        action { R[d] <- sext(i, 96); }
      }
      operation shl(d: REG, a: REG, n: U8) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:8] = a;
                 inst[7:0] = n; }
        action { R[d] <- R[a] << n; }
      }
      operation add(d: REG, a: REG, b: REG) {
        encode { inst[15:12] = 4'd3; inst[11:10] = d; inst[9:8] = a;
                 inst[7:6] = b; }
        action { R[d] <- R[a] + R[b]; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)ISDL";

/// Final state: R1 = 2^64 - 1, R2 = -1, R3 = 2^64.
inline constexpr const char* kWideProgram = R"(
        li R1, 1
        shl R1, R1, 64
        li R2, -1
        add R1, R1, R2
        li R3, 1
        add R3, R1, R3
        halt
)";

/// NEST: an operand option whose own operand is a non-terminal with a side
/// effect: SRC.mem takes an INNER address and INNER.inc post-increments, so
/// `mov D0, (A1+)` runs a side effect of an option nested in an option. DM
/// is 16 deep, so an 8-bit address can fall outside it.
inline constexpr const char* kNestIsdl = R"ISDL(
machine NEST {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    data_memory DM width 16 depth 16;
    register_file AR width 8 depth 4;
    register_file D width 16 depth 4;
    program_counter PC width 8;
  }
  section global_definitions {
    token AREG enum width 2 prefix "A" range 0 .. 3;
    token DREG enum width 2 prefix "D" range 0 .. 3;
    token U8 immediate unsigned width 8;

    nonterminal INNER returns width 3 {
      option ind(a: AREG) {
        syntax "(" a ")";
        encode { $$[2] = 0; $$[1:0] = a; }
        value { AR[a] }
      }
      option inc(a: AREG) {
        syntax "(" a "+" ")";
        encode { $$[2] = 1; $$[1:0] = a; }
        value { AR[a] }
        side_effect { AR[a] <- AR[a] + 8'd1; }
      }
    }
    nonterminal SRC returns width 4 {
      option reg(d: DREG) {
        syntax d;
        encode { $$[3:2] = 2'd0; $$[1:0] = d; }
        value { D[d] }
      }
      option mem(i: INNER) {
        syntax i;
        encode { $$[3] = 1; $$[2:0] = i; }
        value { DM[i] }
      }
    }
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation lar(a: AREG, i: U8) {
        encode { inst[15:12] = 4'd1; inst[11:10] = a; inst[7:0] = i; }
        action { AR[a] <- i; }
      }
      operation mov(d: DREG, s: SRC) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[3:0] = s; }
        action { D[d] <- s; }
      }
      operation st(i: INNER, v: DREG) {
        encode { inst[15:12] = 4'd3; inst[11:10] = v; inst[2:0] = i; }
        action { DM[i] <- D[v]; }
      }
      operation halt() { encode { inst[15:12] = 4'd15; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)ISDL";

}  // namespace isdl::testing

#endif  // ISDL_TESTS_TEST_MACHINES_H
