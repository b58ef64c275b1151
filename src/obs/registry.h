// XTRACE counter/timer registry. Counters have hierarchical slash-separated
// names ("sim/stalls/data", "explore/eval/sim_ns"). Registration resolves a
// name to a stable Counter& once, under a mutex; after that the hot path is
// a single relaxed atomic add — lock-free, and free of any name hashing or
// map lookup, so instrumented code can bump counters inside inner loops.
//
// Timers are counters in nanoseconds: ScopedTimer adds the elapsed wall
// clock of a scope to its cell on destruction. The export (snapshot or
// metrics JSON) is flat-keyed and sorted, so the slash hierarchy is
// preserved lexically.

#ifndef ISDL_OBS_REGISTRY_H
#define ISDL_OBS_REGISTRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace isdl::obs {

/// One counter cell. Stable address for the registry's lifetime.
class Counter {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  Counter& operator++() {
    add(1);
    return *this;
  }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void set(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// True for a wall-clock timer's name (by convention it ends in "_ns").
/// Deterministic summaries leave these out.
inline bool isWallClock(std::string_view name) {
  return name.size() >= 3 && name.substr(name.size() - 3) == "_ns";
}

/// Accumulates the wall-clock nanoseconds of a scope into a Counter.
class ScopedTimer {
 public:
  explicit ScopedTimer(Counter& cell)
      : cell_(cell), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    cell_.add(static_cast<std::uint64_t>(ns.count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Counter& cell_;
  std::chrono::steady_clock::time_point start_;
};

class Registry {
 public:
  /// Resolves (creating on first use) the counter named `name`. The returned
  /// reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);

  /// Times the enclosing scope into counter `name` (unit: nanoseconds; by
  /// convention the name ends in "_ns").
  ScopedTimer time(std::string_view name) { return ScopedTimer(counter(name)); }

  /// All counters, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  /// Zeroes every registered counter (handles stay valid).
  void reset();

  /// Adds every counter of `other` into this registry (creating cells on
  /// first sight). This is the cross-thread aggregation path: parallel
  /// workers each own a private Registry (zero contention on the hot path)
  /// and the coordinator merges them after the join barrier, instead of all
  /// workers sharing one registry's name-resolution mutex. `other` is
  /// snapshotted first, so merging a registry into itself doubles it rather
  /// than deadlocking.
  void merge(const Registry& other);
  /// Same, from an already-snapshotted counter list (e.g. the `counters`
  /// section of a MetricsReport produced on another thread).
  void merge(const std::vector<std::pair<std::string, std::uint64_t>>& counters);

  /// `{"name": value, ...}` sorted by name.
  void writeJson(std::ostream& out, bool pretty = true) const;

 private:
  mutable std::mutex mu_;
  std::deque<Counter> cells_;  ///< deque: growth never moves existing cells
  std::map<std::string, Counter*, std::less<>> byName_;
};

}  // namespace isdl::obs

#endif  // ISDL_OBS_REGISTRY_H
