#include "spans.h"

#include <algorithm>
#include <ctime>
#include <iomanip>
#include <ostream>
#include <set>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local Tracer* tlTracer = nullptr;
thread_local std::int64_t tlOp = -1;
thread_local unsigned tlRow = 0;
thread_local std::uint64_t tlCurrent = 0;  ///< innermost open span

}  // namespace

std::int64_t monotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t threadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t processCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ThreadBinding::ThreadBinding(Tracer* tracer, std::int64_t op, unsigned row,
                             std::uint64_t parent)
    : savedTracer_(tlTracer),
      savedOp_(tlOp),
      savedRow_(tlRow),
      savedCurrent_(tlCurrent) {
  tlTracer = tracer;
  tlOp = op;
  tlRow = row;
  tlCurrent = parent;
}

ThreadBinding::~ThreadBinding() {
  tlTracer = savedTracer_;
  tlOp = savedOp_;
  tlRow = savedRow_;
  tlCurrent = savedCurrent_;
}

Scope::Scope(const char* name) : tracer_(tlTracer) {
  if (!tracer_) return;
  span_.id = tracer_->newId();
  span_.parent = tlCurrent;
  span_.name = name;
  span_.op = tlOp;
  span_.row = tlRow;
  tlCurrent = span_.id;
  span_.startNs = monotonicNs();
}

Scope::~Scope() {
  if (!tracer_) return;
  span_.endNs = monotonicNs();
  tlCurrent = span_.parent;
  tracer_->record(span_);
}

std::map<std::string, LayerTotals> aggregate(const std::vector<Span>& spans,
                                             std::int64_t opBegin,
                                             std::int64_t opEnd) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent) children[s.parent].push_back(&s);

  std::map<std::string, LayerTotals> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans) {
    if (s.op < opBegin || s.op >= opEnd) continue;
    const std::int64_t dur = s.endNs - s.startNs;
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      iv.clear();
      for (const Span* c : it->second)
        iv.emplace_back(std::max(c->startNs, s.startNs),
                        std::min(c->endNs, s.endNs));
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0, hi = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        if (b <= a) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
          continue;
        }
        if (open) covered += hi - lo;
        lo = a;
        hi = b;
        open = true;
      }
      if (open) covered += hi - lo;
    }
    LayerTotals& t = out[s.name];
    ++t.calls;
    t.durNs.push_back(dur);
    t.totalNs += dur;
    t.selfNs += dur - covered;
    if (s.hasCount) {
      t.countSum += s.count;
      ++t.countedCalls;
    }
  }
  return out;
}

namespace {

void writeJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::size_t writeChromeTrace(std::ostream& out, const std::vector<Span>& spans,
                             std::size_t maxEvents) {
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    return a->startNs != b->startNs ? a->startNs < b->startNs : a->id < b->id;
  });
  if (order.size() > maxEvents) order.resize(maxEvents);
  const std::int64_t epoch = order.empty() ? 0 : order.front()->startNs;

  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::set<unsigned> rows;
  for (const Span* s : order) rows.insert(s->row);
  bool first = true;
  for (unsigned row : rows) {
    out << (first ? "" : ",\n")
        << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << row
        << ",\"args\":{\"name\":\"client " << row << "\"}}";
    first = false;
  }
  for (const Span* s : order) {
    out << (first ? "" : ",\n") << "{\"ph\":\"X\",\"name\":";
    writeJsonString(out, s->name);
    out << ",\"cat\":\"" << (s->op < 0 ? "setup" : "op") << "\",\"pid\":1"
        << ",\"tid\":" << s->row
        << ",\"ts\":" << double(s->startNs - epoch) / 1e3
        << ",\"dur\":" << double(s->endNs - s->startNs) / 1e3
        << ",\"args\":{\"op\":" << s->op << ",\"id\":" << s->id
        << ",\"parent\":" << s->parent;
    if (s->hasCount) out << ",\"count\":" << s->count;
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  return order.size();
}

}  // namespace perfbench
