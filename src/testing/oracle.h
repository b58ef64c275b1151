// The differential oracle (ISDL-FUZZ part 3).
//
// The paper's central claim — GENSIM's simulator and HGEN's hardware model
// are two independent backends of one ISDL description — makes the backends
// mutual oracles. This header packages that check as a reusable comparator
// shared by the gtest suites (fuzz_diff_test, cosim_test) and the isdl-fuzz
// driver:
//
//   interp engine  ==  uop engine     exact: stop reason/message, cycles,
//                                     stall attribution, all storage bits
//   interp engine  ==  gatesim(HGEN)  on halting runs: all storage bits,
//                                     retired instructions, and the cycle
//                                     identity  xsim cycles ==
//                                       hw cycle_count + data + struct stalls
//
// Runtime traps (RuntimeError) skip the hardware comparison: the hardware
// model has no trap architecture, but the two software engines must still
// agree on the trap and everything leading up to it.

#ifndef ISDL_TESTING_ORACLE_H
#define ISDL_TESTING_ORACLE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/datapath.h"
#include "isdl/model.h"
#include "obs/registry.h"
#include "sim/xsim.h"

namespace isdl::testing {

struct OracleOptions {
  std::uint64_t maxCycles = 100000;
  bool checkHardware = true;   ///< include the HGEN->netlist->gatesim leg
  obs::Registry* registry = nullptr;  ///< divergence counters (optional)
};

/// Outcome of one (machine, program) comparison. Each divergence is one
/// human-readable line; empty means all engines agreed.
struct OracleReport {
  sim::StopReason reason = sim::StopReason::MaxCycles;  ///< interp's stop
  bool hardwareChecked = false;
  std::vector<std::string> divergences;

  bool ok() const { return divergences.empty(); }
  std::string summary() const;  ///< divergences joined with newlines
};

/// Per-machine oracle: builds both engines (and, lazily, the hardware model)
/// once, then compares any number of programs. The Machine must outlive the
/// oracle.
class DifferentialOracle {
 public:
  explicit DifferentialOracle(const Machine& m, OracleOptions opts = {});
  ~DifferentialOracle();

  OracleReport run(const sim::AssembledProgram& prog);

  const sim::SignatureTable& signatures() const { return uop_.signatures(); }
  const Machine& machine() const { return *m_; }

 private:
  const Machine* m_;
  OracleOptions opts_;
  sim::Xsim uop_;
  sim::Xsim interp_;
  std::unique_ptr<hw::HwModel> model_;  ///< built on first halting run
};

// --- comparator pieces (also used directly by the gtest suites) -------------

/// Appends a line per storage location where the two engines' final
/// architectural state differs.
void compareFinalState(const Machine& m, const sim::Xsim& a,
                       const sim::Xsim& b, const char* aName,
                       const char* bName, std::vector<std::string>& out);

/// Appends a line per differing Stats field: cycles, instructions, stall
/// cycles and attribution, operation issue counts and field utilization.
void compareStats(const sim::Stats& a, const sim::Stats& b, const char* aName,
                  const char* bName, std::vector<std::string>& out);

/// Runs `prog` on the hardware model and appends a line per mismatch against
/// the (already run and drained) reference simulator: storage bits, retired
/// instructions, the cycle identity, and the illegal-decode net.
void compareWithHardware(const Machine& m, const sim::Xsim& ref,
                         const hw::HwModel& model,
                         const sim::AssembledProgram& prog,
                         std::uint64_t maxCycles,
                         std::vector<std::string>& out);

}  // namespace isdl::testing

#endif  // ISDL_TESTING_ORACLE_H
