// Architecture exploration by iterative improvement (paper Figure 1): an
// initial candidate is evaluated, neighbourhood candidates are generated
// from the best one, and the loop repeats until no candidate improves the
// objective.
//
// Each iteration's neighbourhood is evaluated in parallel when
// EvaluateOptions::jobs > 1: candidates are sharded across a worker pool
// (explore/pool.h), every worker owning a thread-confined evaluation
// pipeline and a private obs::Registry, and results are merged back in
// generator order. Parallelism changes wall clock only — the Step history,
// acceptance decisions and Result::writeJson output are byte-identical to a
// serial run (tests/explore_parallel_test.cpp enforces this).
//
// A candidate whose (ISDL, app) pair was already scored in the same run is
// not evaluated again: it gets a copy of the first result, from a memo that
// lives for one run() call. The history, counters and JSON are the same as
// if it had been re-evaluated; only the wall-clock *_ns timers leave it out.

#ifndef ISDL_EXPLORE_DRIVER_H
#define ISDL_EXPLORE_DRIVER_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <utility>
#include <vector>

#include "explore/evaluate.h"

namespace isdl::explore {

/// A candidate architecture plus the application compiled for it. The paper
/// pairs the ISDL description with retargetably-compiled code; here the
/// workload generator produces matched assembly (see spamfamily.h).
struct Candidate {
  std::string name;
  std::string isdlSource;
  std::string appSource;
};

class ExplorationDriver {
 public:
  /// Proposes neighbours of the current best candidate.
  using Generator = std::function<std::vector<Candidate>(
      const Candidate& best, const Evaluation& bestEval, unsigned iteration)>;
  /// Lower is better. Default objective: area-delay product.
  using Objective = std::function<double(const Evaluation&)>;

  struct Step {
    unsigned iteration = 0;
    std::string candidateName;
    double objective = 0;
    double runtimeUs = 0;
    double dieSize = 0;
    std::uint64_t cycles = 0;
    double stallFraction = 0;  ///< from the candidate's metrics report
    bool accepted = false;     ///< became the new best
    bool failed = false;       ///< evaluation error (recorded, skipped)
    std::string error;         ///< the evaluation diagnostic when failed
  };

  struct Result {
    Candidate best;
    Evaluation bestEval;
    std::vector<Step> history;
    unsigned iterations = 0;
    /// Registry counters aggregated across every candidate evaluation of the
    /// run (per-worker registries merged after each iteration's barrier —
    /// see obs::Registry::merge) plus the driver's own explore/* counters.
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /// The exploration summary as JSON: every step of the trajectory plus
    /// the winning candidate's full XTRACE metrics report (same schema the
    /// CLI `profile` command dumps — see docs/OBSERVABILITY.md).
    void writeJson(std::ostream& out) const;
  };

  explicit ExplorationDriver(EvaluateOptions options = {})
      : options_(options) {}

  Result run(const Candidate& initial, const Generator& generate,
             const Objective& objective, unsigned maxIterations = 16) const;

  static double areaDelayObjective(const Evaluation& ev) {
    return ev.areaDelay();
  }

  /// Area-delay weighted by how much of the runtime is stall bubbles: of two
  /// equal-cost candidates, prefer the one whose cycles do useful work
  /// (consumes the evaluation's XTRACE metrics report).
  static double stallAwareObjective(const Evaluation& ev) {
    return ev.areaDelay() * (1.0 + ev.metrics.stallFraction());
  }

 private:
  EvaluateOptions options_;
};

}  // namespace isdl::explore

#endif  // ISDL_EXPLORE_DRIVER_H
