// XTRACE structured metrics: the machine-readable form of the paper's
// "performance measurements and utilization statistics" (Figure 1). A
// MetricsReport is what one simulation run produces for its consumers — the
// exploration driver scores candidates from it, the CLI `profile` command
// dumps it, and the bench harness embeds it — all through the same JSON
// schema (see docs/OBSERVABILITY.md).

#ifndef ISDL_OBS_METRICS_H
#define ISDL_OBS_METRICS_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace isdl::obs {

class JsonWriter;

/// Per-storage access counts: reads[si][elem] / writes[si][elem]. Reads are
/// counted at every architectural read the core performs; writes at every
/// value-changing commit (the write side rides the Monitors hook, which
/// dedups no-change writes). The core holds a nullable pointer to one of
/// these, so a disabled heatmap costs one branch per access.
struct StorageHeatmap {
  std::vector<std::vector<std::uint64_t>> reads;
  std::vector<std::vector<std::uint64_t>> writes;

  void configure(const std::vector<std::uint64_t>& depths);
  void clear();

  void countRead(unsigned si, std::uint64_t elem) { ++reads[si][elem]; }
  void countWrite(unsigned si, std::uint64_t elem) { ++writes[si][elem]; }
};

struct MetricsReport {
  std::string arch;

  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t dataStallCycles = 0;
  std::uint64_t structStallCycles = 0;

  struct OpCount {
    std::string field, op;
    std::uint64_t count = 0;
  };
  std::vector<OpCount> opCounts;  ///< nonzero entries only

  struct FieldUtilization {
    std::string field;
    std::uint64_t usefulInstructions = 0;  ///< issued something besides nop
  };
  std::vector<FieldUtilization> utilization;

  struct StallSource {
    std::string producer;  ///< storage (data) or field (structural) name
    std::uint64_t cycles = 0;
  };
  std::vector<StallSource> dataStallsByProducer;
  std::vector<StallSource> structStallsByField;

  struct Heat {
    std::string storage;
    std::vector<std::uint64_t> reads, writes;  ///< indexed by element
  };
  std::vector<Heat> heatmaps;  ///< storages with any traffic only

  /// Free-form registry counters ("sim/runs", "explore/eval/sim_ns", ...).
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  double stallFraction() const {
    std::uint64_t stalls = dataStallCycles + structStallCycles;
    return cycles ? double(stalls) / double(cycles) : 0.0;
  }

  void writeJson(std::ostream& out, bool pretty = true) const;
  /// Emits the report as one value into an in-progress JSON document. With
  /// `includeWallClock = false`, registry counters named `*_ns` (wall-clock
  /// timers, nondeterministic by nature) are omitted so the emitted JSON is
  /// a pure function of the simulated run — the exploration summary relies
  /// on this to be byte-identical between serial and parallel evaluation.
  void writeJson(JsonWriter& w, bool includeWallClock = true) const;
};

}  // namespace isdl::obs

#endif  // ISDL_OBS_METRICS_H
