// Tests for the Figure-1 exploration loop: candidate evaluation, the
// SPAM-family generator, and iterative improvement converging to a local
// optimum that drops useless hardware and balances units against runtime.

#include "explore/spamfamily.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>

#include "archs/archs.h"
#include "obs/json.h"

namespace isdl::explore {
namespace {

TEST(Evaluate, SrepFibProducesAllFigures) {
  auto m = archs::loadSrep();
  Evaluation ev = evaluate(*m, archs::srepBenchmarks()[0].source);
  ASSERT_TRUE(ev.ok) << ev.error;
  EXPECT_GT(ev.cycles, 0u);
  EXPECT_GT(ev.instructions, 0u);
  EXPECT_GT(ev.cycleNs, 0.0);
  EXPECT_GT(ev.dieSizeGridCells, 0.0);
  EXPECT_GT(ev.verilogLines, 0u);
  EXPECT_GT(ev.runtimeUs(), 0.0);
  EXPECT_EQ(ev.powerMw, 0.0);  // not requested
}

TEST(Evaluate, PowerMeasurement) {
  auto m = archs::loadSrep();
  EvaluateOptions opts;
  opts.measurePower = true;
  opts.powerClocks = 2000;
  Evaluation ev = evaluate(*m, archs::srepBenchmarks()[0].source, opts);
  ASSERT_TRUE(ev.ok) << ev.error;
  EXPECT_GT(ev.powerMw, 0.0);
}

TEST(Evaluate, ReportsAssemblyErrors) {
  auto m = archs::loadSrep();
  Evaluation ev = evaluate(*m, "frobnicate R1\n");
  EXPECT_FALSE(ev.ok);
  EXPECT_NE(ev.error.find("assembly failed"), std::string::npos);
}

TEST(Evaluate, ReportsNonHaltingApps) {
  auto m = archs::loadSrep();
  EvaluateOptions opts;
  opts.maxCycles = 200;
  Evaluation ev = evaluate(*m, "loop: jmp loop\n", opts);
  EXPECT_FALSE(ev.ok);
  EXPECT_NE(ev.error.find("did not halt"), std::string::npos);
}

TEST(SpamFamily, VariantsEvaluateAndScale) {
  // More ALU units => fewer cycles but more area.
  Candidate narrow = makeSpamVariant({1, 0});
  Candidate wide = makeSpamVariant({3, 0});
  Evaluation evNarrow = evaluateIsdl(narrow.isdlSource, narrow.appSource);
  Evaluation evWide = evaluateIsdl(wide.isdlSource, wide.appSource);
  ASSERT_TRUE(evNarrow.ok) << evNarrow.error;
  ASSERT_TRUE(evWide.ok) << evWide.error;
  EXPECT_GT(evNarrow.cycles, evWide.cycles);
  EXPECT_LT(evNarrow.dieSizeGridCells, evWide.dieSizeGridCells);
}

TEST(SpamFamily, MoveUnitsArePureOverheadForThisWorkload) {
  Candidate plain = makeSpamVariant({2, 0});
  Candidate moves = makeSpamVariant({2, 2});
  Evaluation evPlain = evaluateIsdl(plain.isdlSource, plain.appSource);
  Evaluation evMoves = evaluateIsdl(moves.isdlSource, moves.appSource);
  ASSERT_TRUE(evPlain.ok) << evPlain.error;
  ASSERT_TRUE(evMoves.ok) << evMoves.error;
  EXPECT_EQ(evPlain.cycles, evMoves.cycles);
  EXPECT_LT(evPlain.dieSizeGridCells, evMoves.dieSizeGridCells);
}

TEST(SpamFamily, EveryParameterPointIsAValidMachine) {
  // All 16 points of the search space must produce a parse-clean,
  // decodeable, runnable candidate (the driver depends on it).
  for (unsigned alu = 1; alu <= 4; ++alu) {
    for (unsigned mov = 0; mov <= 3; ++mov) {
      SCOPED_TRACE(::testing::Message() << "alu" << alu << "_mov" << mov);
      Candidate c = makeSpamVariant({alu, mov});
      Evaluation ev = evaluateIsdl(c.isdlSource, c.appSource);
      EXPECT_TRUE(ev.ok) << ev.error;
      EXPECT_GT(ev.cycles, 0u);
    }
  }
}

// The 16 candidates' texts, pinned byte for byte: FNV-1a over every
// variant's name, ISDL and application, each ended by a NUL byte. Any change
// to the text changes every exploration result downstream.
TEST(SpamFamily, VariantTextsArePinned) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&](const std::string& text) {
    for (char ch : text)
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    h *= 1099511628211ull;  // the NUL byte: h ^ 0 == h
  };
  for (unsigned alu = 1; alu <= 4; ++alu) {
    for (unsigned mov = 0; mov <= 3; ++mov) {
      Candidate c = makeSpamVariant({alu, mov});
      mix(c.name);
      mix(c.isdlSource);
      mix(c.appSource);
    }
  }
  EXPECT_EQ(h, 15347080560369063656ull);
}

TEST(SpamFamily, NeighbourhoodIsSingleTweaks) {
  auto n = spamNeighbours({2, 1});
  // +-1 alu, +-1 move = 4 neighbours.
  EXPECT_EQ(n.size(), 4u);
  auto n2 = spamNeighbours({1, 0});
  // only +1 alu and +1 move remain valid.
  EXPECT_EQ(n2.size(), 2u);
}

TEST(Exploration, IterativeImprovementTrimsUselessMoves) {
  // Start with an over-provisioned machine: exploration must remove the
  // unused move units and settle on a local optimum of the area-delay
  // objective (Figure 1's termination condition: no further improvement).
  ExplorationDriver driver;
  Candidate initial = makeSpamVariant({1, 2});
  ExplorationDriver::Result result = driver.run(
      initial, spamFamilyGenerator, ExplorationDriver::areaDelayObjective, 8);

  SpamVariantParams best;
  ASSERT_EQ(std::sscanf(result.best.name.c_str(), "alu%u_mov%u",
                        &best.aluUnits, &best.moveUnits),
            2);
  EXPECT_EQ(best.moveUnits, 0u) << "exploration kept useless move units";
  EXPECT_GE(result.iterations, 2u);
  EXPECT_TRUE(result.bestEval.ok);
  // The accepted trajectory is monotonically improving.
  double prev = -1;
  for (const auto& step : result.history) {
    if (!step.accepted) continue;
    if (prev >= 0) {
      EXPECT_LT(step.objective, prev);
    }
    prev = step.objective;
  }
}

// The driver scores each distinct (ISDL, app) pair once per run and serves
// repeats from its memo; every recorded step must still equal what a fresh
// evaluation of that candidate gives.
TEST(Exploration, MemoisedStepsEqualFreshEvaluations) {
  for (auto objective : {ExplorationDriver::areaDelayObjective,
                         ExplorationDriver::stallAwareObjective}) {
    ExplorationDriver driver;
    ExplorationDriver::Result result = driver.run(
        makeSpamVariant({1, 2}), spamFamilyGenerator, objective, 16);
    auto freshEval = [](const std::string& name) {
      SpamVariantParams p;
      EXPECT_EQ(std::sscanf(name.c_str(), "alu%u_mov%u", &p.aluUnits,
                            &p.moveUnits),
                2);
      Candidate c = makeSpamVariant(p);
      return evaluateIsdl(c.isdlSource, c.appSource);
    };
    std::set<std::string> names;
    for (const auto& step : result.history) {
      names.insert(step.candidateName);
      if (step.failed) continue;
      SCOPED_TRACE(::testing::Message() << "iteration " << step.iteration
                                        << ", " << step.candidateName);
      Evaluation fresh = freshEval(step.candidateName);
      ASSERT_TRUE(fresh.ok) << fresh.error;
      EXPECT_EQ(step.objective, objective(fresh));
      EXPECT_EQ(step.cycles, fresh.cycles);
      EXPECT_EQ(step.dieSize, fresh.dieSizeGridCells);
      EXPECT_EQ(step.stallFraction, fresh.metrics.stallFraction());
    }
    // The run does revisit candidates, so the memo was exercised.
    EXPECT_LT(names.size(), result.history.size());

    auto metricsJson = [](const Evaluation& ev) {
      std::ostringstream out;
      obs::JsonWriter w(out, /*pretty=*/true);
      ev.metrics.writeJson(w, /*includeWallClock=*/false);
      return out.str();
    };
    EXPECT_EQ(metricsJson(result.bestEval),
              metricsJson(freshEval(result.best.name)));
  }
}

}  // namespace
}  // namespace isdl::explore
