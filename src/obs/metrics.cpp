#include "obs/metrics.h"

#include <algorithm>
#include <ostream>

#include "obs/json.h"
#include "obs/registry.h"

namespace isdl::obs {

void StorageHeatmap::Row::grow(std::uint64_t elem, std::uint64_t k) {
  // Rows grow by whole chunks and at least double, so a run that walks a
  // memory up or down costs amortised O(1) per element it touches; one
  // chunk covers a typical register file at once. Growing up stops at the
  // storage's last element; growing down stops at element 0 by itself.
  constexpr std::uint64_t kChunk = 64;
  const std::uint64_t first = elem & ~(kChunk - 1);
  if (n.empty()) {
    lo = first;
    n.assign(std::min(kChunk, depth - first), 0);
  } else if (elem >= lo) {
    n.resize(std::min(
        std::max<std::uint64_t>(first + kChunk - lo, 2 * n.size()),
        depth - lo));
  } else {
    const std::uint64_t below = std::max<std::uint64_t>(
        lo - first, std::min<std::uint64_t>(lo, n.size()));
    n.insert(n.begin(), below, 0);
    lo -= below;
  }
  n[elem - lo] += k;
}

void StorageHeatmap::configure(const std::vector<std::uint64_t>& depths) {
  reads.clear();
  for (std::uint64_t depth : depths) reads.push_back(Row{depth, 0, {}});
  writes = reads;
}

void StorageHeatmap::clear() {
  for (Row& r : reads) std::fill(r.n.begin(), r.n.end(), 0);
  for (Row& r : writes) std::fill(r.n.begin(), r.n.end(), 0);
}

void MetricsReport::addHeat(std::string storage, std::uint64_t depth,
                            const StorageHeatmap::Row& reads,
                            const StorageHeatmap::Row& writes) {
  // The range from the first to the last element with traffic.
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const StorageHeatmap::Row* row : {&reads, &writes}) {
    const auto& n = row->n;
    const auto first = std::find_if(n.begin(), n.end(),
                                    [](std::uint64_t c) { return c != 0; });
    if (first == n.end()) continue;
    const auto last = std::find_if(n.rbegin(), n.rend(),
                                   [](std::uint64_t c) { return c != 0; });
    lo = std::min(lo, row->lo + std::uint64_t(first - n.begin()));
    hi = std::max(hi, row->lo + std::uint64_t(n.rend() - last));
  }
  if (lo >= hi) return;
  // Copies a row's counts over [lo, hi), zero where the row does not reach.
  const auto range = [lo, hi](const StorageHeatmap::Row& row) {
    std::vector<std::uint64_t> v(hi - lo, 0);
    const std::uint64_t from = std::max(lo, row.lo);
    const std::uint64_t to = std::min(hi, row.lo + row.n.size());
    if (from < to)
      std::copy(row.n.begin() + std::ptrdiff_t(from - row.lo),
                row.n.begin() + std::ptrdiff_t(to - row.lo),
                v.begin() + std::ptrdiff_t(from - lo));
    return v;
  };
  heatmaps.push_back({std::move(storage), depth, lo, range(reads),
                      range(writes)});
}

void MetricsReport::writeJson(std::ostream& out, bool pretty) const {
  JsonWriter w(out, pretty);
  writeJson(w);
  out << "\n";
}

void MetricsReport::writeJson(JsonWriter& w, bool includeWallClock) const {
  w.beginObject();
  w.field("arch", arch);
  w.field("cycles", cycles);
  w.field("instructions", instructions);
  w.key("stalls").beginObject();
  w.field("data_cycles", dataStallCycles);
  w.field("struct_cycles", structStallCycles);
  w.field("fraction", stallFraction());
  w.key("data_by_producer").beginObject();
  for (const auto& s : dataStallsByProducer) w.field(s.producer, s.cycles);
  w.endObject();
  w.key("struct_by_field").beginObject();
  for (const auto& s : structStallsByField) w.field(s.producer, s.cycles);
  w.endObject();
  w.endObject();  // stalls

  w.key("op_counts").beginObject();
  for (const auto& oc : opCounts) w.field(oc.field + "." + oc.op, oc.count);
  w.endObject();

  w.key("field_utilization").beginObject();
  for (const auto& u : utilization) w.field(u.field, u.usefulInstructions);
  w.endObject();

  w.key("storage_heatmaps").beginObject();
  for (const auto& h : heatmaps) {
    w.key(h.storage).beginObject();
    w.key("reads").beginArray();
    for (std::uint64_t e = 0; e < h.depth; ++e) w.value(h.readsOf(e));
    w.endArray();
    w.key("writes").beginArray();
    for (std::uint64_t e = 0; e < h.depth; ++e) w.value(h.writesOf(e));
    w.endArray();
    w.endObject();
  }
  w.endObject();

  w.key("counters").beginObject();
  for (const auto& [name, value] : counters) {
    if (!includeWallClock && isWallClock(name)) continue;
    w.field(name, value);
  }
  w.endObject();
  w.endObject();
}

}  // namespace isdl::obs
