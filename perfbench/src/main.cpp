// perfbench: the repository benchmark's harness. perfbench/run.py builds it
// and is the command to use; README.md in this directory describes the
// workloads, the metrics and how to compare two versions.
//
//   perfbench --workload <explore|sim|power|fuzz> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file>] [--setup-only]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones, measured on the untraced closed loop. With --trace 1 half
// of the time runs that loop untraced and half replays the same ops layer by
// layer under spans, in alternating slices; the metrics are the per-layer
// ones.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hash.h"
#include "spans.h"
#include "testing/fuzzer.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setupOnly = false;
  std::string traceOut;
};

bool parseArgs(int argc, char** argv, Args& a) {
  auto bad = [](const std::string& flag, const std::string& v) {
    std::cerr << "perfbench: bad value for " << flag << ": '" << v << "'\n";
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setupOnly = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << flag << " needs a value\n";
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--trace-out") {
      a.traceOut = v;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return bad(flag, v);
      a.trace = v == "1";
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end || v[0] == '-') return bad(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(a.seconds > 0 && a.seconds <= 3600))
        return bad(flag, v);
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return false;
    }
  }
  if (a.workload.empty()) {
    std::cerr << "perfbench: --workload is required\n";
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- the closed loop --------------------------------------------------------

/// This process's resident-set high-water mark (VmHWM). getrusage's
/// ru_maxrss would also count the parent's memory from before exec.
double processPeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
  return 0;
}

/// Latencies in logarithmic buckets, 128 to an octave (each under 0.8 %
/// wide), exact below 128 ns. Its size is fixed, so the harness's memory
/// does not grow with the number of ops a window completes.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void add(std::int64_t ns) {
    ++counts_[bucketOf(std::uint64_t(std::max<std::int64_t>(ns, 0)))];
    ++n_;
  }
  void merge(const Histogram& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }
  /// The sample of rank k (0-based) in sorted order, as its bucket's middle.
  double atRankNs(std::uint64_t k) const {
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b)
      if ((seen += counts_[b]) > k) return middle(b);
    return 0;
  }
  double medianNs() const {
    return n_ ? (atRankNs((n_ - 1) / 2) + atRankNs(n_ / 2)) / 2 : 0;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t(1) << kSubBits;
  static constexpr int kMaxShift = 35;  ///< values saturate near 2^42 ns
  static constexpr std::size_t kBuckets = (kMaxShift + 2) * kSub;

  static std::size_t bucketOf(std::uint64_t v) {
    if (v < kSub) return v;
    const int shift =
        std::min(63 - std::countl_zero(v) - kSubBits, kMaxShift);
    const std::uint64_t sub = std::min((v >> shift) - kSub, kSub - 1);
    return std::size_t((shift + 1) * kSub + sub);
  }
  static double middle(std::size_t b) {
    if (b < kSub) return double(b);
    const std::size_t shift = b / kSub - 1;
    const double lo = double((kSub + b % kSub) << shift);
    return lo + double((std::uint64_t(1) << shift) - 1) / 2;
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
};

/// Everything one timed window produced. Its size does not depend on how
/// many ops the window completed, so it does not move peak_rss_mb.
struct Window {
  Window(std::size_t histograms, std::size_t referenceInputs)
      : latency(histograms),
        refRuns(referenceInputs),
        refFailed(referenceInputs) {}

  std::uint64_t ops = 0;     ///< completed ops
  std::uint64_t failed = 0;  ///< completed ops that failed their checks
  /// Op latency by input for a pooled workload; a stream's distinct inputs
  /// share one histogram.
  std::vector<Histogram> latency;
  /// Runs and failed runs of each reference input (input < referenceOps).
  std::vector<std::uint64_t> refRuns, refFailed;
  double seconds = 0;         ///< wall clock the loop ran, over all slices
  double peakRssMb = 0;       ///< process high-water mark when the loop ended
  std::vector<std::string> errors;  ///< the first few failure reasons
  std::uint64_t simCycles = 0, evalNs = 0;
  /// The outcome of each reference op, by its input.
  std::map<std::size_t, OpOutcome> reference;
};

/// Remembers the first outcome of each input below `inputs`; later outcomes
/// of those inputs must match it. (Stream inputs above the reference ops
/// never repeat, and remembering them would grow memory with the op count.)
class Checker {
 public:
  explicit Checker(std::size_t inputs) : inputs_(inputs) {}

  /// "" when `o` succeeded and agrees with the first outcome of `input`.
  std::string check(std::size_t input, const OpOutcome& o) {
    if (!o.ok) return o.error;
    if (input >= inputs_) return "";
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = first_.emplace(input, o.signature);
    if (inserted || it->second == o.signature) return "";
    return "input " + std::to_string(input) +
           ": simulated statistics differ from its first run";
  }
  std::uint64_t signatureOf(std::size_t input) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = first_.find(input);
    return it == first_.end() ? 0 : it->second;
  }

 private:
  const std::size_t inputs_;
  std::mutex mu_;  ///< guards first_
  std::unordered_map<std::size_t, std::uint64_t> first_;
};

/// Moves the calling thread to the next CPU it may run on every 250 ms,
/// between ops, and lets the scheduler move it on from there as usual. On a
/// shared host the cores differ in speed from minute to minute, by up to a
/// third here, and the scheduler keeps a lone busy thread on one core, so
/// without this a single-client run measures that core's luck. Loops with
/// one client per core sample every core anyway.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
  void tick() {
    if (cpus_.size() < 2) return;
    const std::int64_t now = monotonicNs();
    if (now < nextNs_) return;
    nextNs_ = now + 250'000'000;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // migrates the thread now
    sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::int64_t nextNs_ = 0;
};

/// Op numbering: with a pool of P inputs, ops run in rounds of P, each round
/// a seed-shuffled permutation of the pool; a stream maps op n to input n.
class Schedule {
 public:
  Schedule(std::size_t pool, std::uint64_t seed) : pool_(pool), seed_(seed) {}

  std::size_t inputOf(std::int64_t op) {
    if (pool_ == 0) return static_cast<std::size_t>(op);
    const std::uint64_t round = static_cast<std::uint64_t>(op) / pool_;
    if (round != round_ || perm_.empty()) {
      round_ = round;
      perm_.resize(pool_);
      for (std::size_t i = 0; i < pool_; ++i) perm_[i] = i;
      std::shuffle(perm_.begin(), perm_.end(),
                   std::mt19937_64(isdl::testing::mixSeed(seed_, round)));
    }
    return perm_[static_cast<std::uint64_t>(op) % pool_];
  }

 private:
  std::size_t pool_;
  std::uint64_t seed_;
  std::uint64_t round_ = 0;
  std::vector<std::size_t> perm_;
};

/// Ops whose outcomes define the exact counts and the digest: one round of
/// the pool, or the first 16 ops of a stream. Either way their inputs are
/// the inputs below this number, each run once.
std::int64_t referenceOps(const Workload& wl) {
  return wl.poolSize() ? static_cast<std::int64_t>(wl.poolSize()) : 16;
}

/// The closed loop of one mode: untraced through run(), or through replay()
/// under spans when `tracer` is set. runFor() may be called repeatedly; each
/// call continues the op sequence where the last one stopped.
class ClosedLoop {
 public:
  ClosedLoop(Workload& wl, std::uint64_t seed, Tracer* tracer,
             Checker& checker)
      : wl_(wl),
        seed_(seed),
        tracer_(tracer),
        checker_(checker),
        parts_(wl.clients(),
               Window(std::max<std::size_t>(wl.poolSize(), 1),
                      std::size_t(referenceOps(wl)))) {
    if (wl.poolSize() && wl.clients() != 1) {
      std::cerr << "perfbench: pooled workloads run one client\n";
      std::exit(1);
    }
  }

  /// Runs ops for about `seconds`. A pooled workload stops only between
  /// rounds, so every input runs equally often; the loop never stops before
  /// the reference ops are done.
  void runFor(double seconds) {
    const std::int64_t start = monotonicNs();
    const std::int64_t deadline = start + std::int64_t(seconds * 1e9);
    std::atomic<std::int64_t> lastEnd{start};
    auto client = [&](unsigned c) {
      Schedule schedule(wl_.poolSize(), seed_);
      std::optional<CoreRotation> rotation;
      if (parts_.size() == 1) rotation.emplace();
      for (;;) {
        if (rotation) rotation->tick();
        const std::int64_t peek = next_.load();
        const bool boundary =
            wl_.poolSize() == 0 || peek % std::int64_t(wl_.poolSize()) == 0;
        if (boundary && peek >= referenceOps(wl_) && monotonicNs() >= deadline)
          break;
        const std::int64_t op = next_.fetch_add(1);
        const std::int64_t t1 = runOp(c, op, schedule.inputOf(op));
        std::int64_t seen = lastEnd.load();
        while (seen < t1 && !lastEnd.compare_exchange_weak(seen, t1)) {
        }
      }
    };
    if (parts_.size() == 1) {
      client(0);
    } else {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < parts_.size(); ++c)
        threads.emplace_back(client, c);
      for (std::thread& t : threads) t.join();
    }
    seconds_ += double(lastEnd.load() - start) / 1e9;
    peakRssMb_ = processPeakRssMb();
  }

  /// Everything the loop did, over all clients.
  Window finish() {
    Window w(parts_[0].latency.size(), parts_[0].refRuns.size());
    for (Window& p : parts_) {
      w.ops += p.ops;
      w.failed += p.failed;
      for (std::size_t i = 0; i < p.latency.size(); ++i)
        w.latency[i].merge(p.latency[i]);
      for (std::size_t i = 0; i < p.refRuns.size(); ++i) {
        w.refRuns[i] += p.refRuns[i];
        w.refFailed[i] += p.refFailed[i];
      }
      w.simCycles += p.simCycles;
      w.evalNs += p.evalNs;
      for (auto& e : p.errors)
        if (w.errors.size() < 5) w.errors.push_back(e);
      w.reference.merge(p.reference);
    }
    w.seconds = seconds_;
    w.peakRssMb = peakRssMb_;
    return w;
  }

 private:
  /// Runs, times and checks one op; returns its wall-clock end.
  std::int64_t runOp(unsigned c, std::int64_t op, std::size_t input) {
    const bool reference = op < referenceOps(wl_);
    OpOutcome o;
    const std::int64_t c0 = threadCpuNs();
    {
      ThreadBinding bind(tracer_, op, c);
      Scope span("op");
      o = tracer_ ? wl_.replay(input, reference) : wl_.run(input);
    }
    const std::int64_t t1 = monotonicNs();
    const std::int64_t lat = threadCpuNs() - c0;  // see Workload::clients
    Window& part = parts_[c];
    const std::string why = checker_.check(input, o);
    const bool failed = !why.empty();
    part.latency[wl_.poolSize() ? input : 0].add(lat);
    ++part.ops;
    part.failed += failed;
    if (input < part.refRuns.size()) {
      ++part.refRuns[input];
      part.refFailed[input] += failed;
    }
    part.simCycles += o.simCycles;
    part.evalNs += o.evalNs;
    if (failed && part.errors.size() < 5) part.errors.push_back(why);
    if (reference) part.reference.emplace(input, std::move(o));
    return t1;
  }

  Workload& wl_;
  const std::uint64_t seed_;
  Tracer* const tracer_;
  Checker& checker_;
  std::vector<Window> parts_;  ///< per client
  std::atomic<std::int64_t> next_{0};
  double seconds_ = 0;
  double peakRssMb_ = 0;
};

/// Sums the XSIM cycles of every op of `w`, for workloads whose run()
/// cannot report them, replaying each input once on the workload's client
/// count. A stream's ops were its inputs 0..ops-1; a pool's input i ran as
/// many times as its histogram counted.
std::uint64_t recountSimCycles(Workload& wl, const Window& w) {
  const bool pooled = wl.poolSize() != 0;
  const std::size_t inputs = pooled ? wl.poolSize() : std::size_t(w.ops);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> total{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < inputs;)
      total += wl.simCyclesOf(i) * (pooled ? w.latency[i].count() : 1);
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < wl.clients(); ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return total;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Latency {
  std::map<std::size_t, double> inputMedianMs;
  double p50Ms = 0;
  double tailMs = 0;
  double tailPct = 0;  ///< the percentile tailMs is taken at
};

/// p50: the median over distinct inputs of each input's median latency, so
/// the figure does not depend on how often a window drew each input (for a
/// stream of distinct inputs it is the plain median). Tail: the highest
/// percentile with at least ten samples above it.
Latency latency(const Window& w) {
  Latency l;
  Histogram all;
  std::vector<double> medians;
  for (std::size_t i = 0; i < w.latency.size(); ++i) {
    const Histogram& h = w.latency[i];
    if (!h.count()) continue;
    all.merge(h);
    medians.push_back(h.medianNs() / 1e6);
    l.inputMedianMs[i] = medians.back();
  }
  l.p50Ms = median(medians);
  const std::uint64_t n = all.count();
  if (n > 10) {
    l.tailMs = all.atRankNs(n - 11) / 1e6;
    l.tailPct = 100.0 * double(n - 10) / double(n);
  } else if (n) {
    l.tailMs = all.atRankNs(n - 1) / 1e6;
    l.tailPct = 100;
  }
  return l;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The per-layer metrics, in the order BENCHMARK.json lists them.
const char* const kStageNames[] = {
    "isdl.parse",         "isdl.sema",          "sim.build",
    "sim.assemble",       "sim.load",           "sim.run",
    "hw.datapath",        "hw.share",           "hw.verilog",
    "synth.map",          "synth.sta",          "synth.gatesim",
    "explore.evaluate",   "testing.machinegen", "testing.programgen",
    "testing.oracle"};

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void printErrors(const Window& w) {
  for (const std::string& e : w.errors) std::cout << "  FAILED: " << e << "\n";
}

/// The digest of simulated outputs: each reference input's signature and
/// final-state detail, in input order.
std::string digest(Checker& checker,
                   const std::map<std::size_t, std::uint64_t>& details) {
  Hasher h;
  for (const auto& [input, detail] : details)
    h.u64(input).u64(checker.signatureOf(input)).u64(detail);
  return hex(h.value());
}

int runBenchmark(const Args& a, Workload& wl, double setupS, Tracer& tracer) {
  const std::int64_t refOps = referenceOps(wl);
  Checker checker(refOps);
  std::cout << std::fixed;

  if (!a.trace) {
    ClosedLoop loop(wl, a.seed, nullptr, checker);
    loop.runFor(a.seconds);
    Window w = loop.finish();
    if (!wl.runReportsCycles()) w.simCycles = recountSimCycles(wl, w);
    // Replay each reference input once, layer by layer: the replay checks
    // the kernel results against the host answers and must reproduce the
    // timed ops' statistics exactly.
    std::map<std::size_t, std::uint64_t> details;
    std::uint64_t failed = w.failed;
    for (std::size_t input = 0; input < std::size_t(refOps); ++input) {
      OpOutcome o = wl.replay(input, true);
      if (std::string why = checker.check(input, o); !why.empty()) {
        failed += w.refRuns[input] - w.refFailed[input];
        if (w.errors.size() < 5) w.errors.push_back("replay: " + why);
      }
      details[input] = o.detail;
    }

    const Latency lat = latency(w);
    const double n = double(w.ops);
    std::vector<Metric> m = {
        {"setup_s", setupS, "s"},
        {"ops_per_s", n / w.seconds, "1/s"},
        {"peak_rss_mb", w.peakRssMb, "MB"},
        {"sim_cycles_per_s", double(w.simCycles) / w.seconds, "1/s"},
    };
    std::cout << std::setprecision(4) << "workload " << a.workload << "  seed "
              << a.seed << "  clients " << wl.clients() << "  window "
              << w.seconds << " s  ops " << w.ops << "\n";
    for (const Metric& x : m)
      std::cout << "  " << std::left << std::setw(18) << x.name << std::right
                << std::setw(16) << x.value << " " << x.unit << "\n";
    // Printed, not gated: see README.md.
    std::cout << "  op_ms_p50         " << std::setw(16) << lat.p50Ms
              << " ms\n";
    std::cout << "  op_ms_tail        " << std::setw(16) << lat.tailMs
              << " ms (p" << std::setprecision(3) << lat.tailPct
              << ", n=" << w.ops << ")\n";
    std::cout << "  failed_frac       " << std::setw(16)
              << (n ? double(failed) / n : 0.0) << "\n";
    if (wl.poolSize()) {
      std::cout << "  median ms by input:";
      for (const auto& [input, ms] : lat.inputMedianMs)
        std::cout << " " << input << ":" << std::setprecision(3) << ms;
      std::cout << "\n";
    }
    printErrors(w);
    std::cout << "sim_digest: " << digest(checker, details) << "\n";
    printJson(failed == 0, w.ops, failed, m);
    return 0;
  }

  // Traced run: the untraced loop and the same ops replayed under spans,
  // alternating in slices of about a second, so that drift in the host's
  // speed reaches both alike.
  ClosedLoop untraced(wl, a.seed, nullptr, checker);
  ClosedLoop traced(wl, a.seed, &tracer, checker);
  const int slices = std::max(1, int(a.seconds / 2));
  for (int i = 0; i < slices; ++i) {
    untraced.runFor(a.seconds / 2 / slices);
    traced.runFor(a.seconds / 2 / slices);
  }
  Window u = untraced.finish();
  Window t = traced.finish();
  const std::vector<Span> spans = tracer.spans();

  const double untracedRate = double(u.ops) / u.seconds;
  const double tracedRate = double(t.ops) / t.seconds;
  const double overhead = 1.0 - tracedRate / untracedRate;
  const auto ops =
      aggregate(spans, 0, std::numeric_limits<std::int64_t>::max());
  const auto setupSpans = aggregate(spans, -1, 0);
  const auto ref = aggregate(spans, 0, refOps);
  const double nOps = double(t.ops);

  auto medianUs = [](const LayerTotals& lt) {
    std::vector<double> v(lt.durNs.begin(), lt.durNs.end());
    return median(v) / 1e3;
  };
  auto stageUs = [&](const std::string& name) {
    if (auto it = ops.find(name); it != ops.end()) return medianUs(it->second);
    if (auto it = setupSpans.find(name); it != setupSpans.end())
      return medianUs(it->second);
    return 0.0;
  };
  auto perCall = [&](const std::string& name) {
    auto it = ref.find(name);
    if (it == ref.end() || !it->second.countedCalls) return 0.0;
    return double(it->second.countSum) / double(it->second.countedCalls);
  };
  auto rate = [&](const std::string& name) {
    auto it = ops.find(name);
    if (it == ops.end() || !it->second.countedCalls) return 0.0;
    return double(it->second.countSum) / (double(it->second.totalNs) / 1e9);
  };
  double refCycles = 0, refStalls = 0, refEvals = 0, refDistinct = 0,
         refPairs = 0;
  std::map<std::size_t, std::uint64_t> details;
  for (const auto& [input, o] : t.reference) {
    refCycles += double(o.simCycles);
    refStalls += double(o.simStalls);
    refEvals += double(o.evals);
    refDistinct += double(o.distinct);
    refPairs += double(o.pairs);
    details[input] = o.detail;
  }
  const double nRef = double(refOps);

  std::vector<Metric> m;
  for (const char* stage : kStageNames)
    m.push_back({std::string(stage) + ".us", stageUs(stage), "us"});
  auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  add("sim.run.cycles_per_s", rate("sim.run"), "1/s");
  add("sim.cycles", refCycles / nRef, "count");
  add("sim.stall_cycles", refStalls / nRef, "count");
  add("hw.datapath.nodes", perCall("hw.datapath"), "count");
  add("hw.share.nodes", perCall("hw.share"), "count");
  add("hw.verilog.bytes", perCall("hw.verilog"), "count");
  add("synth.gatesim.clocks_per_s", rate("synth.gatesim"), "1/s");
  add("synth.gatesim.clocks", perCall("synth.gatesim"), "count");
  add("explore.evals", refEvals / nRef, "count");
  add("explore.unique_eval_frac", refEvals ? refDistinct / refEvals : 0.0,
      "frac");
  add("explore.pool_busy_frac", double(u.evalNs) / (u.seconds * 1e9), "frac");
  add("testing.pairs", refPairs / nRef, "count");
  add("trace.overhead_frac", overhead, "frac");

  // Human-readable layer table: self time is what each layer spends outside
  // the layers it calls; shares are of all traced busy time in ops.
  std::int64_t selfTotal = 0;
  for (const auto& [name, lt] : ops) selfTotal += lt.selfNs;
  std::vector<std::pair<std::string, const LayerTotals*>> rows;
  for (const auto& [name, lt] : ops) rows.push_back({name, &lt});
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second->selfNs > y.second->selfNs;
  });
  const Latency ul = latency(u), tl = latency(t);
  std::cout << std::setprecision(3) << "workload " << a.workload << "  seed "
            << a.seed << "  traced ops " << t.ops << " in " << t.seconds
            << " s, untraced ops " << u.ops << " in " << u.seconds
            << " s\n";
  std::cout << "  " << std::left << std::setw(20) << "layer" << std::right
            << std::setw(10) << "calls/op" << std::setw(12) << "us/call p50"
            << std::setw(12) << "self us/op" << std::setw(8) << "share"
            << "\n";
  for (const auto& [name, lt] : rows)
    std::cout << "  " << std::left << std::setw(20) << name << std::right
              << std::setw(10) << double(lt->calls) / nOps << std::setw(12)
              << medianUs(*lt) << std::setw(12)
              << double(lt->selfNs) / 1e3 / nOps << std::setw(7)
              << 100.0 * double(lt->selfNs) / double(selfTotal) << "%\n";
  if (!setupSpans.empty()) {
    std::cout << "  set-up (once per run):\n";
    for (const auto& [name, lt] : setupSpans)
      std::cout << "    " << std::left << std::setw(18) << name << std::right
                << std::setw(10) << lt.calls << " calls" << std::setw(12)
                << double(lt.selfNs) / 1e3 << " us self\n";
  }
  // Accounting: the spans' busy time per op against the untraced loop's
  // wall time per op and client. Means add up across layers; medians do not.
  const double tracedMs = double(selfTotal) / 1e6 / nOps;
  const double untracedMs =
      1e3 * u.seconds * wl.clients() / double(u.ops);
  std::cout << "  spans account for " << tracedMs << " ms/op; untraced loop "
            << untracedMs << " ms/op (ratio " << tracedMs / untracedMs
            << ", trace.overhead_frac " << overhead << "); op_ms_p50 traced "
            << tl.p50Ms << " vs untraced " << ul.p50Ms << "\n";
  std::cout << std::setprecision(6);
  for (const Metric& x : m)
    std::cout << "  " << std::left << std::setw(28) << x.name << std::right
              << std::setw(18) << x.value << " " << x.unit << "\n";

  if (!a.traceOut.empty()) {
    std::ofstream f(a.traceOut);
    const std::size_t written = writeChromeTrace(
        f, spans, 200000);
    if (!f) {
      std::cerr << "perfbench: cannot write " << a.traceOut << "\n";
      return 1;
    }
    std::cout << "chrome trace: " << a.traceOut << " (" << written << " of "
              << spans.size() << " spans)\n";
  }
  printErrors(u);
  printErrors(t);
  const std::uint64_t failed = u.failed + t.failed;
  const std::uint64_t attempted = u.ops + t.ops;
  std::cout << "sim_digest: " << digest(checker, details) << "\n";
  printJson(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parseArgs(argc, argv, args)) return 2;
  std::unique_ptr<Workload> wl = makeWorkload(args.workload);
  if (!wl) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Tracer tracer;  // receives the set-up's spans too
  try {
    ThreadBinding bind(args.trace ? &tracer : nullptr, -1, 0);
    wl->setup(args.seed);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }
  // Set-up time is the process's CPU time so far: loading, static
  // initialisation and setup(), all of it single-threaded, without the time
  // other tenants of the host took from it.
  const double setupS = double(processCpuNs()) / 1e9;
  if (args.setupOnly) {
    std::cout << std::setprecision(17) << "{\"setup_s\": " << setupS << "}\n";
    return 0;
  }
  return runBenchmark(args, *wl, setupS, tracer);
}
