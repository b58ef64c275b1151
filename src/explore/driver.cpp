#include "explore/driver.h"

#include <ostream>
#include <string>
#include <unordered_map>

#include "explore/pool.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "support/diag.h"

namespace isdl::explore {

namespace {

/// The exact bytes of (ISDL, app); the length prefix keeps two different
/// pairs from sharing a key.
std::string memoKey(const Candidate& c) {
  return std::to_string(c.isdlSource.size()) + ':' + c.isdlSource +
         c.appSource;
}

}  // namespace

void ExplorationDriver::Result::writeJson(std::ostream& out) const {
  obs::JsonWriter w(out, /*pretty=*/true);
  w.beginObject();
  w.field("best", best.name);
  w.field("iterations", std::uint64_t{iterations});
  w.key("history").beginArray();
  for (const Step& step : history) {
    w.beginObject();
    w.field("iteration", std::uint64_t{step.iteration});
    w.field("candidate", step.candidateName);
    if (step.failed) {
      w.field("failed", true);
      w.field("error", step.error);
    } else {
      w.field("objective", step.objective);
      w.field("runtime_us", step.runtimeUs);
      w.field("die_size", step.dieSize);
      w.field("cycles", step.cycles);
      w.field("stall_fraction", step.stallFraction);
      w.field("accepted", step.accepted);
    }
    w.endObject();
  }
  w.endArray();
  // Aggregated counters over every evaluation of the run. Wall-clock timers
  // (*_ns) are deliberately omitted here and from best_metrics below: the
  // summary must be a pure function of the candidate set so that serial and
  // parallel runs (and repeated runs) serialize byte-identically.
  w.key("totals").beginObject();
  for (const auto& [name, value] : counters) {
    if (!obs::isWallClock(name)) w.field(name, value);
  }
  w.endObject();
  w.key("best_metrics");
  bestEval.metrics.writeJson(w, /*includeWallClock=*/false);
  w.endObject();
  out << "\n";
}

ExplorationDriver::Result ExplorationDriver::run(
    const Candidate& initial, const Generator& generate,
    const Objective& objective, unsigned maxIterations) const {
  Result result;
  result.best = initial;
  result.bestEval = evaluateIsdl(initial.isdlSource, initial.appSource,
                                 options_);
  if (!result.bestEval.ok)
    throw IsdlError("initial candidate failed to evaluate: " +
                    result.bestEval.error);
  double bestObj = objective(result.bestEval);
  result.history.push_back({0, initial.name, bestObj,
                            result.bestEval.runtimeUs(),
                            result.bestEval.dieSizeGridCells,
                            result.bestEval.cycles,
                            result.bestEval.metrics.stallFraction(), true,
                            false, {}});

  // Every (ISDL, app) pair scored in this run, keyed by its exact bytes.
  // An evaluation is a pure function of the pair (options_ is fixed for the
  // run), so a repeat — the previous best comes back as a neighbour — copies
  // its first result. Map nodes never move, so workers fill their own slots
  // while the map stands still.
  std::unordered_map<std::string, Evaluation> memo;
  memo.emplace(memoKey(initial), result.bestEval);

  // One pool (and one private registry per worker) for the whole run; both
  // are reused across iterations. Workers share nothing while a batch is in
  // flight — each evaluation builds its own Xsim — so the only cross-thread
  // traffic is the index counter and the post-barrier registry merge.
  WorkerPool pool(options_.jobs);
  std::vector<obs::Registry> workerRegs(pool.jobs());
  obs::Registry totals;
  totals.merge(result.bestEval.metrics.counters);
  ++totals.counter("explore/candidates");

  for (unsigned iter = 1; iter <= maxIterations; ++iter) {
    std::vector<Candidate> neighbours =
        generate(result.best, result.bestEval, iter);
    if (neighbours.empty()) break;

    // Split the neighbourhood: the first sight of a pair is a miss and goes
    // to the pool; a pair seen in an earlier iteration or earlier in this
    // batch is a hit. evals is index-addressed, so the gather below walks
    // generator order regardless of finish order.
    std::vector<Evaluation*> evals(neighbours.size());
    std::vector<char> hit(neighbours.size());
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < neighbours.size(); ++i) {
      auto [slot, fresh] = memo.try_emplace(memoKey(neighbours[i]));
      evals[i] = &slot->second;
      hit[i] = !fresh;
      if (fresh) misses.push_back(i);
    }
    pool.forEach(misses.size(), [&](std::size_t k, unsigned worker) {
      const Candidate& c = neighbours[misses[k]];
      Evaluation& ev = *evals[misses[k]];
      obs::Registry& reg = workerRegs[worker];
      obs::ScopedTimer t = reg.time("explore/worker_ns");
      ev = evaluateIsdl(c.isdlSource, c.appSource, options_);
      reg.merge(ev.metrics.counters);
      ++reg.counter("explore/candidates");
      if (!ev.ok) ++reg.counter("explore/failed");
    });
    // A hit counts as a scored candidate, like a fresh evaluation, but adds
    // nothing to the wall-clock timers: they measure work actually done.
    for (std::size_t i = 0; i < neighbours.size(); ++i) {
      if (!hit[i]) continue;
      for (const auto& [name, value] : evals[i]->metrics.counters)
        if (!obs::isWallClock(name)) totals.counter(name).add(value);
      ++totals.counter("explore/candidates");
      if (!evals[i]->ok) ++totals.counter("explore/failed");
    }

    // Deterministic merge, exactly the serial loop's acceptance rule: walk
    // in generator order, strict improvement over the running best, so ties
    // resolve to the earliest candidate no matter which worker ran it.
    bool improved = false;
    std::size_t bestIdx = 0, bestStep = 0;
    double bestNeighbourObj = bestObj;
    for (std::size_t i = 0; i < neighbours.size(); ++i) {
      const Evaluation& ev = *evals[i];
      Step step;
      step.iteration = iter;
      step.candidateName = neighbours[i].name;
      if (!ev.ok) {
        step.failed = true;
        step.error = ev.error;
        result.history.push_back(step);
        continue;
      }
      step.objective = objective(ev);
      step.runtimeUs = ev.runtimeUs();
      step.dieSize = ev.dieSizeGridCells;
      step.cycles = ev.cycles;
      step.stallFraction = ev.metrics.stallFraction();
      if (step.objective < bestNeighbourObj) {
        bestNeighbourObj = step.objective;
        bestIdx = i;
        bestStep = result.history.size();
        improved = true;
      }
      result.history.push_back(step);
    }
    result.iterations = iter;
    if (!improved) break;  // local optimum: Figure 1's loop terminates
    result.best = neighbours[bestIdx];
    result.bestEval = *evals[bestIdx];
    result.history[bestStep].accepted = true;
    bestObj = bestNeighbourObj;
  }

  for (const obs::Registry& reg : workerRegs) totals.merge(reg);
  totals.counter("explore/iterations").set(result.iterations);
  result.counters = totals.snapshot();
  return result;
}

}  // namespace isdl::explore
