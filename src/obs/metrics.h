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

/// Per-storage access counts. Reads are counted at every architectural read
/// the core performs; writes at every value-changing commit (the write side
/// rides the Monitors hook, which dedups no-change writes). The core holds a
/// nullable pointer to one of these, so a disabled heatmap costs one branch
/// per access.
///
/// A row holds the counts of the element range the run has touched, not of
/// the whole storage: it starts empty and grows to cover each element as it
/// is counted, so arming, clearing and reporting a profile cost what the run
/// touched, whatever the storages' depths. A row never grows past its
/// storage's depth.
struct StorageHeatmap {
  /// Counts of elements [lo, lo + n.size()) of a storage `depth` elements
  /// deep; every other element's is 0.
  struct Row {
    std::uint64_t depth = 0;
    std::uint64_t lo = 0;
    std::vector<std::uint64_t> n;

    void add(std::uint64_t elem, std::uint64_t k) {
      const std::uint64_t i = elem - lo;  // wraps below lo
      if (i < n.size())
        n[i] += k;
      else
        grow(elem, k);
    }

   private:
    void grow(std::uint64_t elem, std::uint64_t k);
  };
  std::vector<Row> reads;
  std::vector<Row> writes;

  /// One empty row pair per storage, for storages `depths` elements deep.
  void configure(const std::vector<std::uint64_t>& depths);
  /// Zeroes every count; the rows keep the ranges they cover.
  void clear();

  void countRead(unsigned si, std::uint64_t elem, std::uint64_t k = 1) {
    reads[si].add(elem, k);
  }
  void countWrite(unsigned si, std::uint64_t elem, std::uint64_t k = 1) {
    writes[si].add(elem, k);
  }
  /// Takes back one counted write of `elem`.
  void uncountWrite(unsigned si, std::uint64_t elem) {
    --writes[si].n[elem - writes[si].lo];
  }
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

  /// One storage's counts over the element range with traffic, [lo, lo +
  /// reads.size()): the first and last element of the range have a read or
  /// a write, and every element outside it has neither. The JSON lists all
  /// `depth` elements.
  struct Heat {
    std::string storage;
    std::uint64_t depth = 0;
    std::uint64_t lo = 0;
    std::vector<std::uint64_t> reads, writes;  ///< both over the range

    std::uint64_t readsOf(std::uint64_t elem) const {
      return elem - lo < reads.size() ? reads[elem - lo] : 0;
    }
    std::uint64_t writesOf(std::uint64_t elem) const {
      return elem - lo < writes.size() ? writes[elem - lo] : 0;
    }
    bool operator==(const Heat&) const = default;
  };
  std::vector<Heat> heatmaps;  ///< storages with any traffic only
  /// Appends the heat of a storage `depth` elements deep from its rows of a
  /// StorageHeatmap, when they hold any traffic.
  void addHeat(std::string storage, std::uint64_t depth,
               const StorageHeatmap::Row& reads,
               const StorageHeatmap::Row& writes);

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
