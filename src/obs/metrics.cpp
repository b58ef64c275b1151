#include "obs/metrics.h"

#include <ostream>

#include "obs/json.h"
#include "obs/registry.h"

namespace isdl::obs {

void StorageHeatmap::configure(const std::vector<std::uint64_t>& depths) {
  reads.assign(depths.size(), {});
  writes.assign(depths.size(), {});
  for (std::size_t si = 0; si < depths.size(); ++si) {
    reads[si].assign(depths[si], 0);
    writes[si].assign(depths[si], 0);
  }
}

void StorageHeatmap::clear() {
  for (auto& v : reads) v.assign(v.size(), 0);
  for (auto& v : writes) v.assign(v.size(), 0);
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
    for (std::uint64_t r : h.reads) w.value(r);
    w.endArray();
    w.key("writes").beginArray();
    for (std::uint64_t x : h.writes) w.value(x);
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
