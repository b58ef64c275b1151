// The facts semantic analysis records for the back ends, checked against
// walks of the RTL trees that derive them again: Machine::widestValue (the
// widest final width of any expression, which decides the execution engine)
// and Operation::writesPc (which keeps control flow out of generated
// programs). The walks cover the bundled architectures, the SPAM-family
// variants, the shared test machines and generated machines.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "archs/archs.h"
#include "explore/spamfamily.h"
#include "isdl/parser.h"
#include "sim/xsim.h"
#include "support/strings.h"
#include "test_machines.h"
#include "testing/machinegen.h"

namespace isdl {
namespace {

unsigned widest(const rtl::Expr& e) {
  unsigned w = e.width;
  for (const auto& operand : e.operands) w = std::max(w, widest(*operand));
  return w;
}

unsigned widest(const std::vector<rtl::StmtPtr>& list) {
  unsigned w = 0;
  for (const auto& s : list) {
    if (s->kind == rtl::StmtKind::Assign) {
      if (s->dest.index) w = std::max(w, widest(*s->dest.index));
      w = std::max(w, widest(*s->value));
    } else {
      w = std::max({w, widest(*s->cond), widest(s->thenStmts),
                    widest(s->elseStmts)});
    }
  }
  return w;
}

/// The widest final width over every expression of the description.
unsigned referenceWidest(const Machine& m) {
  unsigned w = 0;
  for (const Field& field : m.fields)
    for (const Operation& op : field.operations)
      w = std::max({w, widest(op.action), widest(op.sideEffects)});
  for (const NonTerminal& nt : m.nonTerminals) {
    for (const NtOption& opt : nt.options) {
      if (opt.value) w = std::max(w, widest(*opt.value));
      if (opt.lvalue && opt.lvalue->index)
        w = std::max(w, widest(*opt.lvalue->index));
      w = std::max(w, widest(opt.sideEffects));
    }
  }
  return w;
}

bool assignsPc(const Machine& m, const std::vector<rtl::StmtPtr>& list) {
  for (const auto& s : list) {
    if (s->kind == rtl::StmtKind::Assign) {
      if (!s->dest.isParam &&
          static_cast<int>(s->dest.storageIndex) == m.pcIndex)
        return true;
    } else if (assignsPc(m, s->thenStmts) || assignsPc(m, s->elseStmts)) {
      return true;
    }
  }
  return false;
}

/// Checks the recorded facts of `m` against the walks; returns whether the
/// machine is narrow.
bool expectFactsMatchWalks(const Machine& m) {
  EXPECT_EQ(m.widestValue, referenceWidest(m));
  for (const Field& field : m.fields)
    for (const Operation& op : field.operations)
      EXPECT_EQ(op.writesPc,
                assignsPc(m, op.action) || assignsPc(m, op.sideEffects))
          << field.name << "." << op.name;
  const bool narrow = m.widestValue <= 64;
  EXPECT_EQ(sim::Xsim(m).uopEnabled(), narrow);
  return narrow;
}

TEST(SemaFacts, BundledArchitectures) {
  for (auto loader : {archs::loadSpam, archs::loadSpam2, archs::loadSrep,
                      archs::loadTdsp}) {
    auto m = loader();
    SCOPED_TRACE(m->name);
    EXPECT_TRUE(expectFactsMatchWalks(*m));
  }
}

TEST(SemaFacts, SpamFamilyVariants) {
  for (unsigned alu = 1; alu <= 4; ++alu) {
    for (unsigned mov = 0; mov <= 3; ++mov) {
      const explore::Candidate c = explore::makeSpamVariant({alu, mov});
      SCOPED_TRACE(c.name);
      auto m = parseAndCheckIsdl(c.isdlSource);
      EXPECT_TRUE(expectFactsMatchWalks(*m));
      // bne and jmp are U0's only control-flow operations.
      for (const Operation& op : m->fields[0].operations)
        EXPECT_EQ(op.writesPc, op.name == "bne" || op.name == "jmp")
            << op.name;
    }
  }
}

TEST(SemaFacts, TestMachines) {
  struct Case {
    const char* name;
    const char* isdl;
    bool narrow;
  };
  const Case cases[] = {
      {"MINI", testing::kMiniIsdl, true},
      {"W64", testing::kW64Isdl, true},
      {"WIDE", testing::kWideIsdl, false},
      {"NEST", testing::kNestIsdl, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto m = parseAndCheckIsdl(c.isdl);
    EXPECT_EQ(expectFactsMatchWalks(*m), c.narrow);
  }
  EXPECT_EQ(parseAndCheckIsdl(testing::kWideIsdl)->widestValue, 96u);
}

TEST(SemaFacts, GeneratedMachines) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "machine seed " << seed);
    std::mt19937_64 rng(seed);
    testing::MachineSpec spec = testing::randomMachineSpec(rng);
    spec.seed = seed;
    auto m = parseAndCheckIsdl(testing::emitIsdl(spec));
    expectFactsMatchWalks(*m);
  }
}

// The bound covers every non-terminal option, also one no operand selects,
// and an unsized constant at the width its sibling gives it. Assignments to
// the PC inside an option do not make an operation control flow.
TEST(SemaFacts, OptionsAndLateSizedConstants) {
  auto m = parseAndCheckIsdl(R"ISDL(
machine M {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 16;
    register_file R width 64 depth 4;
    program_counter PC width 8;
  }
  section global_definitions {
    token REG enum width 2 prefix "R" range 0 .. 3;
    nonterminal UNUSED returns width 2 {
      option r(a: REG) {
        syntax a;
        encode { $$[1:0] = a; }
        value { concat(R[a], R[a]) }
      }
    }
    nonterminal JUMPY returns width 2 {
      option r(a: REG) {
        syntax a;
        encode { $$[1:0] = a; }
        value { R[a] }
        side_effect { PC <- 8'd0; }
      }
    }
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[15:12] = 4'd0; } }
      operation mov(d: REG, s: JUMPY) {
        encode { inst[15:12] = 4'd1; inst[11:10] = d; inst[9:8] = s; }
        action { R[d] <- s; }
      }
      operation cmp(d: REG, a: REG) {
        encode { inst[15:12] = 4'd2; inst[11:10] = d; inst[9:8] = a; }
        action { if (3 == R[a]) { R[d] <- 0; } }
      }
      operation jmp(a: REG) {
        encode { inst[15:12] = 4'd3; inst[9:8] = a; }
        action { if (R[a] != 0) { PC <- R[a][7:0]; } }
      }
    }
  }
}
)ISDL");
  EXPECT_EQ(m->widestValue, 128u);
  EXPECT_FALSE(sim::Xsim(*m).uopEnabled());
  const Field& ex = m->fields[0];
  EXPECT_FALSE(ex.operations[1].writesPc);
  EXPECT_FALSE(ex.operations[2].writesPc);
  EXPECT_TRUE(ex.operations[3].writesPc);
  const rtl::Expr& three = *ex.operations[2].action[0]->cond->operands[0];
  EXPECT_EQ(three.width, 64u);
  expectFactsMatchWalks(*m);
}

}  // namespace
}  // namespace isdl
