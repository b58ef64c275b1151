// Wall-clock spans around the benchmark's calls into each layer of the
// program. Spans are kept in memory for the whole traced run and written out
// once at the end as Chrome trace-event JSON (chrome://tracing, Perfetto),
// one row per client thread.
//
// The spans live in the benchmark, not in the program: each one brackets a
// call into a layer's public function (parseIsdl, Xsim::run, buildDatapath,
// ...), so the program under test is the same binary code whether or not the
// benchmark traces it.

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock (CLOCK_MONOTONIC).
std::int64_t monotonicNs();
/// CPU time of the calling thread, in nanoseconds.
std::int64_t threadCpuNs();
/// CPU time of the whole process since it started, in nanoseconds.
std::int64_t processCpuNs();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  const char* name = "";     ///< a string literal, e.g. "sim.run"
  std::int64_t op = -1;      ///< op number within the traced run; -1 = set-up
  unsigned row = 0;          ///< trace row: the client thread
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t count = 0;   ///< work the call did (cycles, nodes, bytes...)
  bool hasCount = false;
};

/// Collects spans from any number of threads.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }
  void record(const Span& span);
  /// Every span recorded so far, in recording order.
  std::vector<Span> spans() const;

 private:
  std::atomic<std::uint64_t> nextId_{0};
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Binds the calling thread to a tracer while it lives: spans opened on this
/// thread belong to op `op`, are drawn on row `row`, and get `parent` as
/// their parent unless they nest inside another span of this thread. With a
/// null tracer every Scope on the thread is a no-op, so the same replay code
/// runs traced and untraced.
class ThreadBinding {
 public:
  ThreadBinding(Tracer* tracer, std::int64_t op, unsigned row,
                std::uint64_t parent = 0);
  ~ThreadBinding();
  ThreadBinding(const ThreadBinding&) = delete;
  ThreadBinding& operator=(const ThreadBinding&) = delete;

 private:
  Tracer* savedTracer_;
  std::int64_t savedOp_;
  unsigned savedRow_;
  std::uint64_t savedCurrent_;
};

/// One span, open from construction to destruction.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Id of this span (0 when the thread has no tracer).
  std::uint64_t id() const { return span_.id; }
  /// Records how much work the call did.
  void count(std::uint64_t n) {
    span_.count = n;
    span_.hasCount = true;
  }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Aggregates of one span name over a set of spans.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::vector<std::int64_t> durNs;  ///< one entry per call
  std::int64_t selfNs = 0;          ///< summed self time
  std::int64_t totalNs = 0;         ///< summed duration
  std::uint64_t countSum = 0;       ///< summed Span::count
  std::uint64_t countedCalls = 0;   ///< calls that reported a count
};

/// Per-name totals of the spans with op in [opBegin, opEnd). A span's self
/// time is its duration minus the part of its interval that its children
/// cover (children may run on other threads and overlap each other).
std::map<std::string, LayerTotals> aggregate(const std::vector<Span>& spans,
                                             std::int64_t opBegin,
                                             std::int64_t opEnd);

/// Writes the spans as Chrome trace-event JSON, row N named "client N". At
/// most `maxEvents` spans are written, the earliest first; returns the
/// number written.
std::size_t writeChromeTrace(std::ostream& out, const std::vector<Span>& spans,
                             std::size_t maxEvents);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
