// Tests for the XTRACE observability subsystem (obs/): the JSON writer,
// the counter registry, the event ring buffer, and the simulator-level
// integration — op counts, field utilization, stall attribution, heatmaps,
// and the Chrome trace / metrics JSON exports.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "isdl/parser.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/xsim.h"
#include "test_machines.h"

namespace isdl {
namespace {

// --- a minimal JSON validity checker ------------------------------------------
//
// Recursive-descent acceptor for RFC 8259 JSON. The exporters promise
// syntactic validity by construction; this is the independent check.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;

  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }
  void skipWs() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (!eof() && peek() == '}') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (eof() || peek() != '"' || !string()) return false;
      skipWs();
      if (eof() || peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (eof()) return false;
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skipWs();
    if (!eof() && peek() == ']') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (eof()) return false;
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    ++pos_;  // '"'
    while (!eof()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        if (eof()) return false;
        char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (eof() || !std::isxdigit(static_cast<unsigned char>(s_[pos_++])))
              return false;
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          return false;
        }
      }
    }
    return false;
  }

  bool number() {
    std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      peek() == '+' || peek() == '-'))
      ++pos_;
    return pos_ > start;
  }
};

bool isValidJson(const std::string& s) { return JsonChecker(s).valid(); }

// --- JsonWriter ----------------------------------------------------------------

TEST(JsonWriter, NestedObjectsAndArraysCompact) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/false);
  w.beginObject()
      .field("name", "x")
      .key("list")
      .beginArray()
      .value(std::uint64_t{1})
      .value(std::uint64_t{2})
      .endArray()
      .key("nested")
      .beginObject()
      .field("ok", true)
      .endObject()
      .endObject();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os.str(), R"({"name":"x","list":[1,2],"nested":{"ok":true}})");
  EXPECT_TRUE(isValidJson(os.str()));
}

TEST(JsonWriter, EscapesStringsPerRfc8259) {
  EXPECT_EQ(obs::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(obs::jsonEscape(std::string_view("\x01", 1)), "\\u0001");
  std::ostringstream os;
  obs::JsonWriter w(os, false);
  w.beginObject().field("k\"ey", "v\nal").endObject();
  EXPECT_TRUE(isValidJson(os.str()));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  obs::JsonWriter w(os, false);
  w.beginArray()
      .value(std::nan(""))
      .value(std::numeric_limits<double>::infinity())
      .value(1.5)
      .endArray();
  EXPECT_EQ(os.str(), "[null,null,1.5]");
}

TEST(JsonWriter, PrettyOutputIsStillValid) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/true);
  w.beginObject()
      .key("a")
      .beginArray()
      .beginObject()
      .field("x", 1)
      .endObject()
      .endArray()
      .endObject();
  EXPECT_TRUE(w.done());
  EXPECT_TRUE(isValidJson(os.str()));
}

// --- Registry ------------------------------------------------------------------

TEST(Registry, SameNameResolvesToSameCell) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("sim/stalls");
  obs::Counter& b = reg.counter("sim/stalls");
  EXPECT_EQ(&a, &b);
  ++a;
  a.add(4);
  EXPECT_EQ(b.get(), 5u);
}

TEST(Registry, SnapshotIsSortedAndResetZeroes) {
  obs::Registry reg;
  reg.counter("z/last").add(3);
  reg.counter("a/first").add(1);
  reg.counter("m/mid").add(2);
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "a/first");
  EXPECT_EQ(snap[1].first, "m/mid");
  EXPECT_EQ(snap[2].first, "z/last");
  obs::Counter& handle = reg.counter("a/first");
  reg.reset();
  EXPECT_EQ(handle.get(), 0u);  // handle survives reset
  for (const auto& [name, v] : reg.snapshot()) EXPECT_EQ(v, 0u) << name;
}

TEST(Registry, ScopedTimerAccumulatesNanoseconds) {
  obs::Registry reg;
  { obs::ScopedTimer t = reg.time("work_ns"); }
  { obs::ScopedTimer t = reg.time("work_ns"); }
  // Wall clock is monotone; two scopes recorded something >= 0 without
  // clobbering each other (the cell accumulates).
  EXPECT_GE(reg.counter("work_ns").get(), 0u);
}

TEST(Registry, WriteJsonIsValid) {
  obs::Registry reg;
  reg.counter("sim/runs").add(2);
  reg.counter("needs\"escaping").add(1);
  std::ostringstream os;
  reg.writeJson(os);
  EXPECT_TRUE(isValidJson(os.str())) << os.str();
  EXPECT_NE(os.str().find("sim/runs"), std::string::npos);
}

// --- TraceBuffer ---------------------------------------------------------------

TEST(TraceBuffer, RingOverwritesOldestAndCountsDrops) {
  obs::TraceBuffer buf(4);
  for (std::uint64_t c = 0; c < 6; ++c)
    buf.record({.kind = obs::EventKind::Issue, .cycle = c});
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.dropped(), 2u);
  std::vector<std::uint64_t> cycles;
  buf.forEach([&](const obs::TraceEvent& e) { cycles.push_back(e.cycle); });
  EXPECT_EQ(cycles, (std::vector<std::uint64_t>{2, 3, 4, 5}));
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

// --- StorageHeatmap --------------------------------------------------------------

TEST(StorageHeatmap, RowsNeverGrowPastTheStorage) {
  // Walking every element up, then down, keeps each row within its depth.
  const std::vector<std::uint64_t> depths = {1, 100, 1000, 4096};
  obs::StorageHeatmap heat;
  heat.configure(depths);
  for (unsigned si = 0; si < depths.size(); ++si) {
    for (std::uint64_t e = 0; e < depths[si]; ++e) heat.countRead(si, e);
    EXPECT_EQ(heat.reads[si].lo, 0u);
    EXPECT_EQ(heat.reads[si].n.size(), depths[si]);
    for (std::uint64_t e = depths[si]; e-- > 0;) heat.countWrite(si, e, 2);
    EXPECT_EQ(heat.writes[si].lo, 0u);
    EXPECT_EQ(heat.writes[si].n.size(), depths[si]);
  }
  // A row that starts at the last element covers only up to it.
  heat.configure({1000});
  heat.countRead(0, 999);
  EXPECT_EQ(heat.reads[0].lo + heat.reads[0].n.size(), 1000u);
}

TEST(StorageHeatmap, ReportHoldsTheRangeWithTraffic) {
  obs::StorageHeatmap heat;
  heat.configure({1000});
  heat.countRead(0, 130);
  heat.countWrite(0, 200, 3);
  heat.countRead(0, 70);
  heat.countWrite(0, 10);
  heat.uncountWrite(0, 10);  // element 10 keeps no traffic
  obs::MetricsReport r;
  r.addHeat("DM", 1000, heat.reads[0], heat.writes[0]);
  ASSERT_EQ(r.heatmaps.size(), 1u);
  const auto& h = r.heatmaps[0];
  EXPECT_EQ(h.lo, 70u);
  EXPECT_EQ(h.reads.size(), 131u);
  EXPECT_EQ(h.writes.size(), 131u);
  EXPECT_EQ(h.readsOf(70), 1u);
  EXPECT_EQ(h.readsOf(130), 1u);
  EXPECT_EQ(h.writesOf(200), 3u);
  EXPECT_EQ(h.writesOf(10), 0u);
  EXPECT_EQ(h.readsOf(999), 0u);
  // Rows with no traffic add no heat.
  heat.clear();
  r.addHeat("DM", 1000, heat.reads[0], heat.writes[0]);
  EXPECT_EQ(r.heatmaps.size(), 1u);
}

// --- simulator integration -----------------------------------------------------

class ObsSimTest : public ::testing::Test {
 protected:
  ObsSimTest()
      : machine_(parseAndCheckIsdl(testing::kMiniIsdl)), sim_(*machine_) {}

  void load(std::string_view asmText) {
    sim::Assembler assembler(sim_.signatures());
    DiagnosticEngine diags;
    auto prog = assembler.assemble(asmText, diags);
    ASSERT_TRUE(prog.has_value()) << diags.dump();
    std::string err;
    ASSERT_TRUE(sim_.loadProgram(*prog, &err)) << err;
  }

  unsigned field(std::string_view n) {
    int f = machine_->findField(n);
    EXPECT_GE(f, 0);
    return static_cast<unsigned>(f);
  }
  unsigned storage(std::string_view n) {
    int si = machine_->findStorage(n);
    EXPECT_GE(si, 0);
    return static_cast<unsigned>(si);
  }
  unsigned op(unsigned f, std::string_view n) {
    const auto& ops = machine_->fields[f].operations;
    for (std::size_t o = 0; o < ops.size(); ++o)
      if (ops[o].name == n) return static_cast<unsigned>(o);
    ADD_FAILURE() << "no op " << n;
    return 0;
  }

  std::unique_ptr<Machine> machine_;
  sim::Xsim sim_;
};

TEST_F(ObsSimTest, OpCountsAndFieldUtilizationOnHandScheduledVliw) {
  // Four instructions; only the third uses the MV slot.
  load(R"(
li R1, 5
li R2, 7
{ add R3, R1, R2 | mv R4, R1 }
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, sim::StopReason::Halted);
  const sim::Stats& s = sim_.stats();
  unsigned ex = field("EX"), mv = field("MV");
  EXPECT_EQ(s.instructions, 4u);
  EXPECT_EQ(s.opCount[ex][op(ex, "li")], 2u);
  EXPECT_EQ(s.opCount[ex][op(ex, "add")], 1u);
  EXPECT_EQ(s.opCount[ex][op(ex, "halt")], 1u);
  EXPECT_EQ(s.opCount[ex][op(ex, "nop")], 0u);
  EXPECT_EQ(s.opCount[mv][op(mv, "mv")], 1u);
  EXPECT_EQ(s.opCount[mv][op(mv, "mnop")], 3u);
  // Utilization counts non-nop issues: EX busy every instruction, MV once.
  EXPECT_EQ(s.fieldUtilization[ex], 4u);
  EXPECT_EQ(s.fieldUtilization[mv], 1u);
}

TEST_F(ObsSimTest, DataStallAttributedToProducerStorage) {
  // ld (latency 2, stall 1) followed by a dependent add: the one interlock
  // bubble is charged to the storage holding the in-flight write — RF.
  load(R"(
.dm 3 77
li R1, 3
ld R2, R1
add R3, R2, R2
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, sim::StopReason::Halted);
  const sim::Stats& s = sim_.stats();
  EXPECT_EQ(s.dataStallCycles, 1u);
  EXPECT_EQ(s.dataStallsByStorage[storage("RF")], 1u);
  for (std::size_t si = 0; si < s.dataStallsByStorage.size(); ++si) {
    if (si == storage("RF")) continue;
    EXPECT_EQ(s.dataStallsByStorage[si], 0u) << si;
  }
}

TEST(ObsStructural, StructStallAttributedToBusyField) {
  auto m = parseAndCheckIsdl(R"(
machine U {
  section format { word_width = 32; }
  section storage {
    instruction_memory IM width 32 depth 64;
    register_file RF width 16 depth 8;
    program_counter PC width 16;
  }
  section global_definitions {
    token REG enum width 3 prefix "R" range 0 .. 7;
    token S8 immediate signed width 8;
  }
  section instruction_set {
    field EX {
      operation nop() { encode { inst[31:27] = 5'd0; } }
      operation slow(d: REG, i: S8) {
        encode { inst[31:27] = 5'd1; inst[26:24] = d; inst[23:16] = i; }
        action { RF[d] <- sext(i, 16); }
        timing { usage = 3; }
      }
      operation halt() { encode { inst[31:27] = 5'd31; } }
    }
  }
  section optional { halt_operation = "EX.halt"; }
}
)");
  sim::Xsim sim(*m);
  sim::Assembler assembler(sim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble("slow R1, 1\nslow R2, 2\nhalt\n", diags);
  ASSERT_TRUE(prog.has_value()) << diags.dump();
  std::string err;
  ASSERT_TRUE(sim.loadProgram(*prog, &err)) << err;
  EXPECT_EQ(sim.run(1000).reason, sim::StopReason::Halted);
  // All 4 structural bubbles come from the busy EX unit.
  EXPECT_EQ(sim.stats().structStallCycles, 4u);
  ASSERT_EQ(sim.stats().structStallsByField.size(), 1u);
  EXPECT_EQ(sim.stats().structStallsByField[0], 4u);
  // ...and the metrics report names it.
  obs::MetricsReport rep = sim.metricsReport();
  ASSERT_EQ(rep.structStallsByField.size(), 1u);
  EXPECT_EQ(rep.structStallsByField[0].producer, "EX");
  EXPECT_EQ(rep.structStallsByField[0].cycles, 4u);
}

TEST_F(ObsSimTest, MetricsReportAndJsonExport) {
  sim_.enableProfile();
  load(R"(
.dm 3 77
li R1, 3
ld R2, R1
add R3, R2, R2
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, sim::StopReason::Halted);
  sim_.drainPipeline();

  obs::MetricsReport rep = sim_.metricsReport();
  EXPECT_EQ(rep.arch, "MINI");
  EXPECT_EQ(rep.cycles, sim_.stats().cycles);
  EXPECT_EQ(rep.instructions, 4u);
  EXPECT_EQ(rep.dataStallCycles, 1u);
  EXPECT_GT(rep.stallFraction(), 0.0);

  bool sawAdd = false;
  for (const auto& oc : rep.opCounts)
    if (oc.field == "EX" && oc.op == "add") {
      sawAdd = true;
      EXPECT_EQ(oc.count, 1u);
    }
  EXPECT_TRUE(sawAdd);

  ASSERT_EQ(rep.dataStallsByProducer.size(), 1u);
  EXPECT_EQ(rep.dataStallsByProducer[0].producer, "RF");

  // Heatmap: R1 read by ld and (twice) nothing else reads R3; RF writes to
  // R1, R2, R3 all changed value.
  const obs::MetricsReport::Heat* rf = nullptr;
  for (const auto& h : rep.heatmaps)
    if (h.storage == "RF") rf = &h;
  ASSERT_NE(rf, nullptr);
  EXPECT_GT(rf->readsOf(1), 0u);   // R1 is ld's address operand
  EXPECT_GT(rf->writesOf(2), 0u);  // R2 written by ld
  EXPECT_GT(rf->writesOf(3), 0u);  // R3 written by add

  // Registry counters ride along.
  bool sawRuns = false;
  for (const auto& [name, v] : rep.counters)
    if (name == "sim/runs") {
      sawRuns = true;
      EXPECT_EQ(v, 1u);
    }
  EXPECT_TRUE(sawRuns);

  std::ostringstream os;
  sim_.writeMetricsJson(os);
  EXPECT_TRUE(isValidJson(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"op_counts\""), std::string::npos);
  EXPECT_NE(os.str().find("\"storage_heatmaps\""), std::string::npos);
  EXPECT_NE(os.str().find("\"stalls\""), std::string::npos);
}

TEST_F(ObsSimTest, ChromeTraceExportIsValidJsonWithExpectedPhases) {
  sim_.enableTrace(256);
  load(R"(
.dm 3 77
li R1, 3
ld R2, R1
add R3, R2, R2
halt
)");
  EXPECT_EQ(sim_.run(1000).reason, sim::StopReason::Halted);
  sim_.drainPipeline();
  ASSERT_NE(sim_.trace(), nullptr);
  EXPECT_GT(sim_.trace()->size(), 0u);

  std::ostringstream os;
  sim_.writeChromeTrace(os);
  std::string json = os.str();
  EXPECT_TRUE(isValidJson(json)) << json;
  // The golden structural facts: a traceEvents array, metadata naming the
  // rows, complete events for issues/stalls, instant events for write-backs.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  // Issue events carry the op name; the data stall names its producer.
  EXPECT_NE(json.find("add"), std::string::npos);
  EXPECT_NE(json.find("stall"), std::string::npos);

  sim_.disableTrace();
  EXPECT_EQ(sim_.trace(), nullptr);
}

TEST_F(ObsSimTest, TracingDisabledByDefaultAndExportStillValid) {
  load("li R1, 1\nhalt\n");
  EXPECT_EQ(sim_.run(1000).reason, sim::StopReason::Halted);
  EXPECT_EQ(sim_.trace(), nullptr);
  std::ostringstream os;
  sim_.writeChromeTrace(os);  // no buffer -> empty but valid document
  EXPECT_TRUE(isValidJson(os.str())) << os.str();
}

TEST_F(ObsSimTest, ResetClearsTraceAndHeatmaps) {
  sim_.enableTrace(64);
  sim_.enableProfile();
  load("li R1, 1\nhalt\n");
  EXPECT_EQ(sim_.run(1000).reason, sim::StopReason::Halted);
  EXPECT_GT(sim_.trace()->size(), 0u);
  sim_.reset();
  EXPECT_EQ(sim_.trace()->size(), 0u);
  obs::MetricsReport rep = sim_.metricsReport();
  EXPECT_EQ(rep.cycles, 0u);
  // reset() reloads the program image, so IM writes are expected; execution
  // traffic (RF) must be gone.
  for (const auto& h : rep.heatmaps)
    EXPECT_NE(h.storage, "RF") << "execution heatmap survived reset";
}

}  // namespace
}  // namespace isdl
