// Tests for the parallel sharded exploration driver (explore/pool.h and the
// jobs > 1 path of ExplorationDriver::run). The contract under test: any
// jobs value changes wall clock only — the Step history, the acceptance
// decisions, and the serialized JSON summary are byte-identical to a serial
// run; and one failing candidate is isolated to its own Step instead of
// poisoning the batch.

#include "explore/pool.h"

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "explore/spamfamily.h"

namespace isdl::explore {
namespace {

// --- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.forEach(hits.size(), [&](std::size_t i, unsigned worker) {
    EXPECT_LT(worker, 4u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossBatchesOfVaryingSize) {
  WorkerPool pool(3);
  for (std::size_t count : {5u, 0u, 1u, 17u, 2u}) {
    std::atomic<std::size_t> ran{0};
    pool.forEach(count, [&](std::size_t, unsigned) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), count);
  }
}

TEST(WorkerPool, SingleJobRunsInlineInOrder) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  std::vector<std::size_t> order;
  std::thread::id caller = std::this_thread::get_id();
  pool.forEach(8, [&](std::size_t i, unsigned worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPool, ZeroMeansAllHardwareThreads) {
  EXPECT_GE(effectiveJobs(0), 1u);
  EXPECT_EQ(effectiveJobs(3), 3u);
  WorkerPool pool(0);
  EXPECT_EQ(pool.jobs(), effectiveJobs(0));
}

TEST(WorkerPool, RethrowsLowestIndexExceptionAfterDrainingBatch) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(32);
  try {
    pool.forEach(hits.size(), [&](std::size_t i, unsigned) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 7 || i == 20) throw std::runtime_error("boom " +
                                                      std::to_string(i));
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");  // lowest index wins, like a serial loop
  }
  // The batch still drained: the failure did not strand later indices.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- determinism: jobs=N is byte-identical to jobs=1 ------------------------

ExplorationDriver::Result runSpamExploration(unsigned jobs) {
  EvaluateOptions options;
  options.jobs = jobs;
  ExplorationDriver driver(options);
  return driver.run(makeSpamVariant({1, 2}), spamFamilyGenerator,
                    ExplorationDriver::areaDelayObjective, 8);
}

TEST(ParallelExploration, StepHistoryMatchesSerialRun) {
  ExplorationDriver::Result serial = runSpamExploration(1);
  ExplorationDriver::Result parallel = runSpamExploration(4);

  EXPECT_EQ(serial.best.name, parallel.best.name);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  ASSERT_EQ(serial.history.size(), parallel.history.size());
  for (std::size_t i = 0; i < serial.history.size(); ++i) {
    const auto& s = serial.history[i];
    const auto& p = parallel.history[i];
    SCOPED_TRACE(::testing::Message() << "step " << i << " (" <<
                 s.candidateName << ")");
    EXPECT_EQ(s.iteration, p.iteration);
    EXPECT_EQ(s.candidateName, p.candidateName);
    EXPECT_EQ(s.objective, p.objective);
    EXPECT_EQ(s.cycles, p.cycles);
    EXPECT_EQ(s.accepted, p.accepted);
    EXPECT_EQ(s.failed, p.failed);
    EXPECT_EQ(s.error, p.error);
  }
}

TEST(ParallelExploration, WriteJsonIsByteIdenticalAcrossJobCounts) {
  std::ostringstream serial, parallel;
  runSpamExploration(1).writeJson(serial);
  runSpamExploration(4).writeJson(parallel);
  EXPECT_EQ(serial.str(), parallel.str());
  // And the summary really is a pure function of the run: no wall-clock
  // counter leaked into it.
  EXPECT_EQ(serial.str().find("_ns"), std::string::npos);
}

TEST(ParallelExploration, AggregatedCountersAreJobCountIndependent) {
  ExplorationDriver::Result serial = runSpamExploration(1);
  ExplorationDriver::Result parallel = runSpamExploration(4);
  auto find = [](const ExplorationDriver::Result& r, const std::string& key) {
    for (const auto& [name, value] : r.counters)
      if (name == key) return value;
    return std::uint64_t{0};
  };
  EXPECT_EQ(find(serial, "explore/candidates"),
            std::uint64_t{serial.history.size()});
  EXPECT_EQ(find(serial, "explore/candidates"),
            find(parallel, "explore/candidates"));
  EXPECT_EQ(find(serial, "sim/runs"), find(parallel, "sim/runs"));
  EXPECT_EQ(find(serial, "explore/iterations"), serial.iterations);
  // Wall-clock totals exist programmatically (they are only filtered from
  // the serialized summary).
  EXPECT_GT(find(serial, "eval/total_ns"), 0u);
  EXPECT_GT(find(parallel, "explore/worker_ns"), 0u);
}

// --- failure isolation ------------------------------------------------------

// Generator emitting one malformed-ISDL candidate and one genuine
// improvement in the same batch, once.
std::vector<Candidate> oneBadOneGoodGenerator(const Candidate&,
                                              const Evaluation&,
                                              unsigned iteration) {
  if (iteration > 1) return {};
  Candidate bad;
  bad.name = "broken";
  bad.isdlSource = "this is not ISDL at all {";
  bad.appSource = "";
  // alu1_mov0 improves on the alu1_mov2 start (fewer move units, same
  // cycles, smaller die).
  return {bad, makeSpamVariant({1, 0})};
}

TEST(ParallelExploration, OneBadCandidateDoesNotPoisonTheBatch) {
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
    EvaluateOptions options;
    options.jobs = jobs;
    ExplorationDriver driver(options);
    ExplorationDriver::Result result;
    ASSERT_NO_THROW(result = driver.run(makeSpamVariant({1, 2}),
                                        oneBadOneGoodGenerator,
                                        ExplorationDriver::areaDelayObjective,
                                        4));
    ASSERT_EQ(result.history.size(), 3u);  // initial + bad + good
    const auto& bad = result.history[1];
    EXPECT_EQ(bad.candidateName, "broken");
    EXPECT_TRUE(bad.failed);
    EXPECT_FALSE(bad.accepted);
    EXPECT_FALSE(bad.error.empty()) << "diagnostic lost on failure";
    const auto& good = result.history[2];
    EXPECT_EQ(good.candidateName, "alu1_mov0");
    EXPECT_FALSE(good.failed);
    EXPECT_TRUE(good.accepted);
    EXPECT_EQ(result.best.name, "alu1_mov0");
  }
}

// Generator emitting the same improving candidate twice in one batch, once.
std::vector<Candidate> duplicateGenerator(const Candidate&, const Evaluation&,
                                          unsigned iteration) {
  if (iteration > 1) return {};
  Candidate c = makeSpamVariant({1, 0});
  return {c, c};
}

TEST(ParallelExploration, DuplicateInBatchAcceptsTheFirstCopy) {
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
    EvaluateOptions options;
    options.jobs = jobs;
    ExplorationDriver driver(options);
    ExplorationDriver::Result result =
        driver.run(makeSpamVariant({1, 2}), duplicateGenerator,
                   ExplorationDriver::areaDelayObjective, 4);
    ASSERT_EQ(result.history.size(), 3u);  // initial + two copies
    const auto& first = result.history[1];
    const auto& second = result.history[2];
    EXPECT_EQ(first.candidateName, "alu1_mov0");
    EXPECT_EQ(second.candidateName, "alu1_mov0");
    EXPECT_FALSE(first.failed);
    EXPECT_FALSE(second.failed);
    EXPECT_TRUE(first.accepted) << "the earliest strict improvement wins";
    EXPECT_FALSE(second.accepted);
    EXPECT_EQ(first.objective, second.objective);
    EXPECT_EQ(first.runtimeUs, second.runtimeUs);
    EXPECT_EQ(first.dieSize, second.dieSize);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.stallFraction, second.stallFraction);
    EXPECT_EQ(result.best.name, "alu1_mov0");
  }
}

TEST(ParallelExploration, FailedStepErrorReachesTheJson) {
  EvaluateOptions options;
  options.jobs = 2;
  ExplorationDriver driver(options);
  auto result = driver.run(makeSpamVariant({1, 2}), oneBadOneGoodGenerator,
                           ExplorationDriver::areaDelayObjective, 4);
  std::ostringstream out;
  result.writeJson(out);
  EXPECT_NE(out.str().find("\"failed\": true"), std::string::npos);
  EXPECT_NE(out.str().find("\"error\": "), std::string::npos);
}

}  // namespace
}  // namespace isdl::explore
