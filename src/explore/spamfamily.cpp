#include "explore/spamfamily.h"

#include <cstdio>

#include "support/strings.h"

namespace isdl::explore {

std::string SpamVariantParams::name() const {
  return cat("alu", aluUnits, "_mov", moveUnits);
}

namespace {

/// Emits one arithmetic-unit field occupying bits [base+20 : base].
void emitAluField(std::string& text, unsigned unit, unsigned base) {
  auto range = [&](unsigned hi, unsigned lo) {
    return cat("inst[", base + hi, ":", base + lo, "]");
  };
  catTo(text, "    field U", unit, " {\n");
  catTo(text, "      operation nop() { encode { ", range(20, 16),
        " = 5'd0; } }\n");
  struct Op {
    const char* name;
    unsigned code;
    const char* expr;
  };
  const Op ops[] = {
      {"add", 1, "RF[a] + RF[b]"},
      {"sub", 2, "RF[a] - RF[b]"},
      {"and", 3, "RF[a] & RF[b]"},
      {"or", 4, "RF[a] | RF[b]"},
  };
  for (const Op& op : ops) {
    catTo(text, "      operation ", op.name, "(d: REG, a: REG, b: REG) {\n");
    catTo(text, "        encode { ", range(20, 16), " = 5'd", op.code, "; ",
          range(15, 12), " = d; ", range(11, 8), " = a; ", range(7, 4),
          " = b; }\n");
    catTo(text, "        action { RF[d] <- ", op.expr, "; }\n");
    text += "      }\n";
  }
  text += "    }\n";
}

/// Emits one move field occupying bits [base+10 : base].
void emitMoveField(std::string& text, unsigned unit, unsigned base) {
  auto range = [&](unsigned hi, unsigned lo) {
    return cat("inst[", base + hi, ":", base + lo, "]");
  };
  catTo(text, "    field M", unit, " {\n");
  catTo(text, "      operation mnop() { encode { ", range(10, 8),
        " = 3'd0; } }\n");
  text += "      operation mov(d: REG, s: REG) {\n";
  catTo(text, "        encode { ", range(10, 8), " = 3'd1; ", range(7, 4),
        " = d; ", range(3, 0), " = s; }\n");
  text += "        action { RF[d] <- RF[s]; }\n"
          "      }\n"
          "    }\n";
}

std::string makeIsdl(const SpamVariantParams& p) {
  const unsigned width = 32 + 21 * (p.aluUnits - 1) + 11 * p.moveUnits;
  std::string text;
  catTo(text, "machine SPAMX_", p.name(), " {\n");
  catTo(text, "  section format { word_width = ", width, "; }\n");
  text += "  section storage {\n";
  catTo(text, "    instruction_memory IM width ", width, " depth 1024;\n");
  text += "    data_memory DM width 32 depth 1024;\n"
          "    register_file RF width 32 depth 16;\n"
          "    program_counter PC width 16;\n"
          "  }\n"
          "  section global_definitions {\n"
          "    token REG enum width 4 prefix \"R\" range 0 .. 15;\n"
          "    token U16 immediate unsigned width 16;\n"
          "    token S16 immediate signed width 16;\n"
          "  }\n"
          "  section instruction_set {\n";

  // U0: memory / control / multiply unit in the top 32 bits.
  const unsigned u0 = width - 32;
  auto r = [&](unsigned hi, unsigned lo) {
    return cat("inst[", u0 + hi, ":", u0 + lo, "]");
  };
  text += "    field U0 {\n";
  catTo(text, "      operation nop() { encode { ", r(31, 27), " = 5'd0; } }\n");
  text += "      operation add(d: REG, a: REG, b: REG) {\n";
  catTo(text, "        encode { ", r(31, 27), " = 5'd1; ", r(26, 23), " = d; ",
        r(22, 19), " = a; ", r(18, 15), " = b; }\n");
  text += "        action { RF[d] <- RF[a] + RF[b]; }\n"
          "      }\n"
          "      operation sub(d: REG, a: REG, b: REG) {\n";
  catTo(text, "        encode { ", r(31, 27), " = 5'd2; ", r(26, 23), " = d; ",
        r(22, 19), " = a; ", r(18, 15), " = b; }\n");
  text += "        action { RF[d] <- RF[a] - RF[b]; }\n"
          "      }\n"
          "      operation mul(d: REG, a: REG, b: REG) {\n";
  catTo(text, "        encode { ", r(31, 27), " = 5'd8; ", r(26, 23), " = d; ",
        r(22, 19), " = a; ", r(18, 15), " = b; }\n");
  text += "        action { RF[d] <- RF[a] * RF[b]; }\n"
          "        costs { stall = 0; } timing { latency = 2; }\n"
          "      }\n"
          "      operation li(d: REG, i: S16) {\n";
  catTo(text, "        encode { ", r(31, 27), " = 5'd15; ", r(26, 23), " = d; ",
        r(15, 0), " = i; }\n");
  text += "        action { RF[d] <- sext(i, 32); }\n"
          "      }\n"
          "      operation ld(d: REG, a: REG) {\n";
  catTo(text, "        encode { ", r(31, 27), " = 5'd17; ", r(26, 23), " = d; ",
        r(22, 19), " = a; }\n");
  text += "        action { RF[d] <- DM[RF[a][9:0]]; }\n"
          "        costs { stall = 1; } timing { latency = 2; }\n"
          "      }\n"
          "      operation st(a: REG, b: REG) {\n";
  catTo(text, "        encode { ", r(31, 27), " = 5'd18; ", r(22, 19), " = a; ",
        r(18, 15), " = b; }\n");
  text += "        action { DM[RF[a][9:0]] <- RF[b]; }\n"
          "      }\n"
          "      operation bne(a: REG, b: REG, t: U16) {\n";
  catTo(text, "        encode { ", r(31, 27), " = 5'd20; ", r(26, 23), " = a; ",
        r(22, 19), " = b; ", r(15, 0), " = t; }\n");
  text += "        action { if (RF[a] != RF[b]) { PC <- t; } }\n"
          "        costs { cycle = 2; }\n"
          "      }\n"
          "      operation jmp(t: U16) {\n";
  catTo(text, "        encode { ", r(31, 27), " = 5'd22; ", r(15, 0),
        " = t; }\n");
  text += "        action { PC <- t; }\n"
          "        costs { cycle = 2; }\n"
          "      }\n";
  catTo(text, "      operation halt() { encode { ", r(31, 27),
        " = 5'd31; } }\n");
  text += "    }\n";

  for (unsigned k = 1; k < p.aluUnits; ++k) {
    unsigned base = width - 32 - 21 * k;
    emitAluField(text, k, base);
  }
  for (unsigned j = 0; j < p.moveUnits; ++j) {
    unsigned base = 11 * (p.moveUnits - 1 - j);
    emitMoveField(text, j, base);
  }

  text += "  }\n"
          "  section optional {\n"
          "    halt_operation = \"U0.halt\";\n";
  catTo(text, "    description = \"SPAM-family variant ", p.name(), "\";\n");
  text += "  }\n"
          "}\n";
  return text;
}

/// Packs the three per-iteration pointer adds across the available ALU
/// fields (the "retargetable compilation" of the dot-product kernel).
std::string packedAdds(unsigned aluUnits) {
  const char* adds[] = {"add R1, R1, R8", "add R3, R3, R8", "add R4, R4, R8"};
  std::string out;
  unsigned i = 0;
  while (i < 3) {
    unsigned take = std::min(aluUnits, 3 - i);
    if (take == 1) {
      catTo(out, "        ", adds[i], "\n");
    } else {
      out += "        { ";
      for (unsigned k = 0; k < take; ++k)
        catTo(out, k ? " | " : "", adds[i + k]);
      out += " }\n";
    }
    i += take;
  }
  return out;
}

std::string makeApp(const SpamVariantParams& p) {
  const std::string adds = packedAdds(p.aluUnits);
  return cat(
      "        li R1, 0\n"
      "        li R2, 64\n"
      "        li R3, 0\n"
      "        li R4, 64\n"
      "        li R8, 1\n"
      "init:   st R3, R1\n"
      "        add R6, R1, R1\n"
      "        st R4, R6\n",
      adds,
      "        bne R1, R2, init\n"
      "        li R1, 0\n"
      "        li R3, 0\n"
      "        li R4, 64\n"
      "        li R9, 0\n"
      "loop:   ld R5, R3\n"
      "        ld R6, R4\n"
      "        mul R7, R5, R6\n"
      "        add R9, R9, R7\n",
      adds,
      "        bne R1, R2, loop\n"
      "        li R10, 128\n"
      "        st R10, R9\n"
      "        halt\n");
}

}  // namespace

Candidate makeSpamVariant(const SpamVariantParams& params) {
  Candidate c;
  c.name = params.name();
  c.isdlSource = makeIsdl(params);
  c.appSource = makeApp(params);
  return c;
}

std::vector<SpamVariantParams> spamNeighbours(
    const SpamVariantParams& params) {
  std::vector<SpamVariantParams> out;
  auto tryAdd = [&](SpamVariantParams p) {
    if (p.valid()) out.push_back(p);
  };
  SpamVariantParams p = params;
  ++p.aluUnits;
  tryAdd(p);
  p = params;
  if (p.aluUnits > 1) {
    --p.aluUnits;
    tryAdd(p);
  }
  p = params;
  ++p.moveUnits;
  tryAdd(p);
  p = params;
  if (p.moveUnits > 0) {
    --p.moveUnits;
    tryAdd(p);
  }
  return out;
}

std::vector<Candidate> spamFamilyGenerator(const Candidate& best,
                                           const Evaluation&, unsigned) {
  SpamVariantParams p;
  // Candidate names are "alu<k>_mov<m>".
  if (std::sscanf(best.name.c_str(), "alu%u_mov%u", &p.aluUnits,
                  &p.moveUnits) != 2)
    return {};
  std::vector<Candidate> out;
  for (const auto& n : spamNeighbours(p)) out.push_back(makeSpamVariant(n));
  return out;
}

}  // namespace isdl::explore
