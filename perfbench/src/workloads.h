// The benchmark's four workloads (see perfbench/README.md for why each one
// exists and which layer it stresses). Every workload is a closed loop: a
// client issues its next op only after the previous one returned.
//
// Each op can be executed two ways:
//   run()    — through the program's top-level entry point (evaluateIsdl,
//              ExplorationDriver::run, Xsim::run, testing::runFuzz). This is
//              the timed path behind every end-to-end metric.
//   replay() — the same inputs through each layer's public functions one by
//              one, in the order the top-level entry point calls them, with a
//              Scope around every call. It produces the same statistics as
//              run() (the harness checks the two signatures agree) plus the
//              host-side checks that need the simulator's final state.

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one op produced.
struct OpOutcome {
  bool ok = true;
  std::string error;            ///< why the op failed
  /// Hash of every simulated statistic the op reports (cycles, stalls, cycle
  /// length, die size, Verilog lines, power, exploration trajectory, fuzz
  /// pair outcomes). Repetitions of one input must agree exactly.
  std::uint64_t signature = 0;
  /// replay() with wantDetail only: hash of the final architectural state of
  /// every simulation the op ran.
  std::uint64_t detail = 0;
  std::uint64_t simCycles = 0;  ///< XSIM cycles the op simulated
  std::uint64_t simStalls = 0;  ///< data + structural stall cycles among them
  // Exploration only.
  std::uint64_t evalNs = 0;     ///< summed eval/total_ns of its evaluations
  std::uint64_t evals = 0;      ///< candidates scored
  std::uint64_t distinct = 0;   ///< distinct candidates among them
  // Fuzz only.
  std::uint64_t pairs = 0;      ///< (machine, program) pairs compared
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Client threads of the closed loop. An op runs entirely on its client
  /// thread, so its latency is that thread's CPU time: the host descheduling
  /// the benchmark does not become the tail.
  virtual unsigned clients() const = 0;
  /// Number of distinct inputs. Each round of the loop runs every one of them
  /// once, in a seed-shuffled order. 0 means an endless stream of distinct
  /// inputs, op n taking input n.
  virtual std::size_t poolSize() const = 0;

  /// Makes this run's inputs from the seed: the set-up.
  virtual void setup(std::uint64_t seed) = 0;
  virtual OpOutcome run(std::size_t input) = 0;
  virtual OpOutcome replay(std::size_t input, bool wantDetail) = 0;

  /// False when run() cannot see the simulators and leaves
  /// OpOutcome::simCycles at 0; simCyclesOf then counts them afterwards.
  virtual bool runReportsCycles() const { return true; }
  /// XSIM cycles op `input` simulates, from an untimed replay without the
  /// hardware leg.
  virtual std::uint64_t simCyclesOf(std::size_t) { return 0; }
};

const std::vector<std::string>& workloadNames();
/// Null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
