#include "workloads.h"

#include <bit>
#include <chrono>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>

#include "archs/archs.h"
#include "explore/driver.h"
#include "explore/evaluate.h"
#include "explore/pool.h"
#include "explore/spamfamily.h"
#include "hash.h"
#include "hw/datapath.h"
#include "hw/sharing.h"
#include "hw/verilog.h"
#include "isdl/parser.h"
#include "isdl/sema.h"
#include "sim/assembler.h"
#include "sim/xsim.h"
#include "spans.h"
#include "support/strings.h"
#include "synth/gatesim.h"
#include "synth/mapper.h"
#include "testing/fuzzer.h"
#include "testing/machinegen.h"
#include "testing/oracle.h"
#include "testing/programgen.h"

namespace perfbench {

namespace {

namespace ex = isdl::explore;
namespace sim = isdl::sim;
using isdl::cat;
using isdl::DiagnosticEngine;
using isdl::Machine;

// --- host answers ------------------------------------------------------------

/// Data-memory words (address, value) a kernel must leave behind, computed on
/// the host the way tests/archs_test.cpp computes them.
using Answer = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

std::uint64_t floatBits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// sum_{i<64} i * 2i, the integer dot product every SPAM-family variant and
/// the integer dot kernels compute into DM[128].
constexpr std::uint64_t kIntDot64 = 170688;

Answer answerFor(const std::string& arch, const std::string& kernel) {
  Answer a;
  if (arch == "SPAM" && kernel == "dot64") {
    float acc = 0.0f;
    for (int i = 0; i < 64; ++i) acc += float(i) * float(2 * i);
    a.push_back({128, floatBits(acc)});
  } else if (arch == "SPAM" && kernel == "saxpy64") {
    for (int i = 0; i < 64; ++i)
      a.push_back({64 + i, floatBits(2.5f * float(i) + float(i + 64))});
  } else if (arch == "SPAM" && kernel == "fir8x64") {
    for (int n = 7; n < 64; ++n) {
      float acc = 0.0f;
      for (int k = 0; k < 8; ++k) acc += float(k + 1) * float(n - k);
      a.push_back({std::uint64_t(80 + n), floatBits(acc)});
    }
  } else if (arch == "SPAM" && kernel == "gather16") {
    for (int i = 0; i < 16; ++i) a.push_back({300 + i, 2 * i});
  } else if (arch == "SPAM" && kernel == "mat4x4") {
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) {
        float acc = 0.0f;
        for (int k = 0; k < 4; ++k)
          acc += float(i * 4 + k) * float(k * 4 + j + 1);
        a.push_back({std::uint64_t(32 + i * 4 + j), floatBits(acc)});
      }
  } else if ((arch == "SPAM2" || arch == "SREP") && kernel == "dot64") {
    a.push_back({128, kIntDot64});
  } else if (arch == "SPAM2" && kernel == "vecsum64") {
    std::uint64_t sum = 0;
    for (int i = 0; i < 64; ++i) sum += 3 * i + 1;
    a.push_back({200, sum});
  } else if (arch == "SREP" && kernel == "fib20") {
    a.push_back({0, 6765});
  } else if (arch == "SREP" && kernel == "gcd") {
    a.push_back({1, 21});
  } else if (arch == "TDSP" && kernel == "fir8") {
    std::uint64_t sum = 0;
    for (int k = 0; k < 8; ++k) sum += std::uint64_t(k + 1) * (2 * (k + 1));
    a.push_back({32, sum & 0xFFFF});
  } else if (arch == "TDSP" && kernel == "memcpy8") {
    for (int i = 0; i < 8; ++i) a.push_back({40 + i, 11 * (i + 1)});
  } else {
    throw std::logic_error("no host answer for " + arch + "/" + kernel);
  }
  return a;
}

/// One bundled architecture x kernel pair.
struct Kernel {
  std::string arch;
  const char* isdl;
  isdl::archs::Benchmark bench;
  Answer answer;
};

std::vector<Kernel> bundledKernels() {
  namespace archs = isdl::archs;
  std::vector<Kernel> out;
  auto add = [&](const char* arch, const char* isdl,
                 const std::vector<archs::Benchmark>& benches) {
    for (const archs::Benchmark& b : benches)
      out.push_back({arch, isdl, b, answerFor(arch, b.name)});
  };
  add("SPAM", archs::spamIsdl(), archs::spamBenchmarks());
  add("SPAM2", archs::spam2Isdl(), archs::spam2Benchmarks());
  add("SREP", archs::srepIsdl(), archs::srepBenchmarks());
  add("TDSP", archs::tdspIsdl(), archs::tdspBenchmarks());
  return out;
}

// --- output checks -----------------------------------------------------------

/// "" if data memory holds the host answer, else the first mismatch.
std::string checkAnswer(const sim::Xsim& xs, const Answer& answer) {
  const int dm = xs.machine().findStorage("DM");
  if (dm < 0) return "machine has no DM storage to check";
  for (const auto& [addr, want] : answer) {
    const std::uint64_t got =
        xs.state().read(static_cast<unsigned>(dm), addr).toUint64();
    if (got != want)
      return cat("DM[", addr, "] = ", got, ", host answer ", want);
  }
  return "";
}

/// Hash of every storage element except instruction memory.
std::uint64_t hashState(const sim::Xsim& xs) {
  const Machine& m = xs.machine();
  Hasher h;
  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    if (static_cast<int>(si) == m.imemIndex) continue;
    for (std::uint64_t e = 0; e < m.storages[si].depth; ++e) {
      const isdl::BitVector& v = xs.state().read(unsigned(si), e);
      if (v.width() <= 64)
        h.u64(v.toUint64());
      else
        h.str(v.toHexString());
    }
  }
  return h.value();
}

std::uint64_t evaluationSignature(const ex::Evaluation& ev) {
  return Hasher()
      .u64(ev.cycles)
      .u64(ev.instructions)
      .u64(ev.dataStallCycles)
      .u64(ev.structStallCycles)
      .f64(ev.cycleNs)
      .f64(ev.dieSizeGridCells)
      .u64(ev.verilogLines)
      .f64(ev.powerMw)
      .value();
}

std::uint64_t statsSignature(const sim::Stats& s) {
  return Hasher()
      .u64(s.cycles)
      .u64(s.instructions)
      .u64(s.dataStallCycles)
      .u64(s.structStallCycles)
      .value();
}

void fail(OpOutcome& out, const std::string& why) {
  if (!out.ok) return;  // keep the first reason
  out.ok = false;
  out.error = why;
}

// --- evaluate(), layer by layer ----------------------------------------------

struct EvalReplay {
  ex::Evaluation ev;
  std::string checkError;  ///< host-answer mismatch; "" = matches
  std::uint64_t stateHash = 0;
};

/// The body of explore::evaluateIsdl (explore/evaluate.cpp and hw/hgen.cpp),
/// one public call at a time. Leaves the machine and simulator behind for the
/// checks, which run outside the explore.evaluate span.
void evaluateLayers(const std::string& isdlSource, const std::string& app,
                    const ex::EvaluateOptions& opts, ex::Evaluation& ev,
                    std::unique_ptr<Machine>& m,
                    std::unique_ptr<sim::Xsim>& xsim) {
  DiagnosticEngine diags;
  {
    Scope s("isdl.parse");
    m = isdl::parseIsdl(isdlSource, diags);
  }
  if (m) {
    Scope s("isdl.sema");
    isdl::checkMachine(*m, diags);
  }
  if (!m || diags.hasErrors()) {
    ev.error = "ISDL description is invalid:\n" + diags.dump();
    return;
  }
  ev.archName = m->name;
  const auto evalStart = std::chrono::steady_clock::now();
  {
    Scope s("sim.build");
    xsim = std::make_unique<sim::Xsim>(*m);
    xsim->enableProfile();
  }
  std::optional<sim::AssembledProgram> prog;
  {
    Scope s("sim.assemble");
    sim::Assembler assembler(xsim->signatures());
    DiagnosticEngine adiags;
    prog = assembler.assemble(app, adiags);
    if (!prog) {
      ev.error = "assembly failed:\n" + adiags.dump();
      return;
    }
  }
  {
    Scope s("sim.load");
    std::string loadErr;
    if (!xsim->loadProgram(*prog, &loadErr)) {
      ev.error = "load failed: " + loadErr;
      return;
    }
  }
  sim::RunResult r;
  {
    Scope s("sim.run");
    isdl::obs::ScopedTimer t = xsim->registry().time("eval/sim_ns");
    r = xsim->run(opts.maxCycles);
    s.count(xsim->stats().cycles);
  }
  if (r.reason != sim::StopReason::Halted) {
    ev.error = std::string("application did not halt: ") +
               sim::stopReasonName(r.reason) + " " + r.message;
    return;
  }
  xsim->drainPipeline();
  ev.cycles = xsim->stats().cycles;
  ev.instructions = xsim->stats().instructions;
  ev.dataStallCycles = xsim->stats().dataStallCycles;
  ev.structStallCycles = xsim->stats().structStallCycles;
  ev.stats = xsim->stats();

  isdl::hw::HwModel model;
  std::string verilog;
  isdl::synth::AreaReport area;
  isdl::synth::TimingReport timing;
  {
    isdl::obs::ScopedTimer t = xsim->registry().time("eval/hgen_ns");
    {
      Scope s("hw.datapath");
      model = isdl::hw::buildDatapath(*m, xsim->signatures());
      s.count(model.netlist.nodes.size());
    }
    {
      Scope s("hw.share");
      isdl::hw::shareResources(model, *m);
      s.count(model.netlist.nodes.size());
    }
    {
      Scope s("hw.verilog");
      isdl::hw::VerilogOptions vo;
      vo.moduleName = m->name + "_core";
      verilog = isdl::hw::emitVerilog(model.netlist, vo);
      ev.verilogLines = isdl::hw::countLines(verilog);
      s.count(verilog.size());
    }
    {
      Scope s("synth.map");
      area = isdl::synth::mapArea(model.netlist);
    }
    {
      Scope s("synth.sta");
      timing = isdl::synth::analyzeTiming(model.netlist);
    }
  }
  ev.cycleNs = timing.criticalPathNs;
  ev.dieSizeGridCells = area.totalArea;
  xsim->registry().counter("eval/total_ns").add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - evalStart)
          .count()));
  ev.metrics = xsim->metricsReport();

  if (opts.measurePower) {
    Scope s("synth.gatesim");
    isdl::synth::GateSim gs(model.netlist);
    gs.enableToggleCounting(true);
    gs.loadMemory(model.storage[m->imemIndex].mem, prog->words);
    for (std::size_t si = 0; si < m->storages.size(); ++si)
      if (m->storages[si].kind == isdl::StorageKind::DataMemory)
        for (const auto& [addr, value] : prog->dataInit)
          gs.pokeMemory(model.storage[si].mem, addr, value);
    gs.runUntil(model.haltedReg, opts.powerClocks);
    s.count(gs.clocks());
    if (gs.clocks() > 0) {
      double togglesPerCycle = double(gs.toggleCount()) / double(gs.clocks());
      ev.powerMw = isdl::synth::estimatePowerMw(togglesPerCycle, ev.cycleNs);
    }
  }
  ev.ok = true;
}

EvalReplay replayEvaluate(const std::string& isdlSource,
                          const std::string& app, const Answer& answer,
                          const ex::EvaluateOptions& opts, bool wantDetail) {
  EvalReplay out;
  std::unique_ptr<Machine> m;
  std::unique_ptr<sim::Xsim> xsim;
  {
    Scope s("explore.evaluate");
    try {
      evaluateLayers(isdlSource, app, opts, out.ev, m, xsim);
    } catch (const std::exception& e) {
      out.ev.error = e.what();
    }
  }
  if (out.ev.ok) {
    out.checkError = checkAnswer(*xsim, answer);
    if (wantDetail) out.stateHash = hashState(*xsim);
  }
  return out;
}

// --- explore -----------------------------------------------------------------

/// One ExplorationDriver::run to convergence over the 16-variant SPAM family.
/// Input i starts from variant i/2 under the area-delay (even i) or the
/// stall-aware (odd i) objective.
class ExploreWorkload : public Workload {
 public:
  unsigned clients() const override { return 1; }
  std::size_t poolSize() const override { return 2 * candidates_.size(); }

  void setup(std::uint64_t) override {
    candidates_.clear();
    for (unsigned alu = 1; alu <= 4; ++alu)
      for (unsigned mov = 0; mov <= 3; ++mov)
        candidates_.push_back(ex::makeSpamVariant({alu, mov}));
  }

  OpOutcome run(std::size_t input) override {
    OpOutcome out;
    try {
      ex::ExplorationDriver driver(options());
      ex::ExplorationDriver::Result r = driver.run(
          candidates_[input / 2], ex::spamFamilyGenerator, objective(input),
          kMaxIterations);
      summarize(out, r.history, r.best.name, r.iterations);
      for (const auto& [name, value] : r.counters)
        if (name == "eval/total_ns") out.evalNs = value;
    } catch (const std::exception& e) {
      fail(out, e.what());
    }
    return out;
  }

  /// ExplorationDriver::run's loop (explore/driver.cpp) over replayed
  /// evaluations, each neighbourhood through a pool of the same size.
  OpOutcome replay(std::size_t input, bool wantDetail) override {
    using Step = ex::ExplorationDriver::Step;
    OpOutcome out;
    const ex::EvaluateOptions opts = options();
    const auto objectiveFn = objective(input);
    Hasher detail;
    std::string checkError;
    auto absorb = [&](EvalReplay& r) {
      if (checkError.empty() && !r.checkError.empty())
        checkError = r.ev.archName + ": " + r.checkError;
      detail.u64(r.stateHash);
      out.simStalls += r.ev.dataStallCycles + r.ev.structStallCycles;
    };

    ex::Candidate best = candidates_[input / 2];
    EvalReplay first =
        replayEvaluate(best.isdlSource, best.appSource, dotAnswer(), opts,
                       wantDetail);
    absorb(first);
    if (!first.ev.ok) {
      fail(out, "initial candidate failed to evaluate: " + first.ev.error);
      return out;
    }
    ex::Evaluation bestEval = std::move(first.ev);
    double bestObj = objectiveFn(bestEval);
    std::vector<Step> history;
    history.push_back({0, best.name, bestObj, bestEval.runtimeUs(),
                       bestEval.dieSizeGridCells, bestEval.cycles,
                       bestEval.metrics.stallFraction(), true, false, {}});
    unsigned iterations = 0;

    ex::WorkerPool pool(opts.jobs);
    for (unsigned iter = 1; iter <= kMaxIterations; ++iter) {
      std::vector<ex::Candidate> neighbours =
          ex::spamFamilyGenerator(best, bestEval, iter);
      if (neighbours.empty()) break;
      std::vector<EvalReplay> evals(neighbours.size());
      pool.forEach(neighbours.size(), [&](std::size_t i, unsigned) {
        evals[i] = replayEvaluate(neighbours[i].isdlSource,
                                  neighbours[i].appSource, dotAnswer(), opts,
                                  wantDetail);
      });

      bool improved = false;
      std::size_t bestIdx = 0;
      double bestNeighbourObj = bestObj;
      for (std::size_t i = 0; i < neighbours.size(); ++i) {
        absorb(evals[i]);
        const ex::Evaluation& ev = evals[i].ev;
        Step step;
        step.iteration = iter;
        step.candidateName = neighbours[i].name;
        if (!ev.ok) {
          step.failed = true;
          step.error = ev.error;
          history.push_back(step);
          continue;
        }
        step.objective = objectiveFn(ev);
        step.runtimeUs = ev.runtimeUs();
        step.dieSize = ev.dieSizeGridCells;
        step.cycles = ev.cycles;
        step.stallFraction = ev.metrics.stallFraction();
        if (step.objective < bestNeighbourObj) {
          bestNeighbourObj = step.objective;
          bestIdx = i;
          improved = true;
        }
        history.push_back(step);
      }
      iterations = iter;
      if (!improved) break;
      best = neighbours[bestIdx];
      bestEval = std::move(evals[bestIdx].ev);
      bestObj = bestNeighbourObj;
      for (auto it = history.rbegin(); it != history.rend(); ++it)
        if (it->iteration == iter && it->candidateName == best.name) {
          it->accepted = true;
          break;
        }
    }
    summarize(out, history, best.name, iterations);
    if (!checkError.empty()) fail(out, checkError);
    if (wantDetail) out.detail = detail.value();
    return out;
  }

 private:
  // One job: the driver runs the same trajectory serially (explore/driver.h).
  // With four, every neighbourhood waits on a 4-thread barrier, and on a
  // shared 4-core host the time other tenants take from any one core moved
  // ops_per_s by 40% between runs, wider than any bound the benchmark can
  // set. Serial, the pool runs inline, so the op stays on its client thread
  // (timed in CPU time, traced on the client's row).
  static constexpr unsigned kJobs = 1;
  static constexpr unsigned kMaxIterations = 16;

  static ex::EvaluateOptions options() {
    ex::EvaluateOptions o;
    o.jobs = kJobs;
    return o;
  }
  static ex::ExplorationDriver::Objective objective(std::size_t input) {
    return input % 2 ? ex::ExplorationDriver::stallAwareObjective
                     : ex::ExplorationDriver::areaDelayObjective;
  }
  static const Answer& dotAnswer() {
    static const Answer answer = {{128, kIntDot64}};
    return answer;
  }

  static void summarize(OpOutcome& out,
                        const std::vector<ex::ExplorationDriver::Step>& history,
                        const std::string& best, unsigned iterations) {
    Hasher h;
    h.str(best).u64(iterations);
    std::set<std::string> names;
    for (const auto& s : history) {
      h.u64(s.iteration)
          .str(s.candidateName)
          .f64(s.objective)
          .f64(s.runtimeUs)
          .f64(s.dieSize)
          .u64(s.cycles)
          .f64(s.stallFraction)
          .u64(s.accepted)
          .u64(s.failed);
      names.insert(s.candidateName);
      out.simCycles += s.cycles;
      if (s.failed) fail(out, s.candidateName + ": " + s.error);
    }
    out.signature = h.value();
    out.evals = history.size();
    out.distinct = names.size();
  }

  std::vector<ex::Candidate> candidates_;
};

// --- sim ---------------------------------------------------------------------

/// reset() + run() to halt on one of the 12 bundled programs, each on an Xsim
/// built and loaded once during set-up.
class SimWorkload : public Workload {
 public:
  unsigned clients() const override { return 1; }
  std::size_t poolSize() const override { return programs_.size(); }

  void setup(std::uint64_t) override {
    programs_.clear();
    for (Kernel& k : bundledKernels()) {
      Program p;
      p.kernel = std::move(k);
      DiagnosticEngine diags;
      {
        Scope s("isdl.parse");
        p.machine = isdl::parseIsdl(p.kernel.isdl, diags);
      }
      if (p.machine) {
        Scope s("isdl.sema");
        isdl::checkMachine(*p.machine, diags);
      }
      if (!p.machine || diags.hasErrors())
        throw std::runtime_error(p.kernel.arch + ": " + diags.dump());
      {
        Scope s("sim.build");
        p.xsim = std::make_unique<sim::Xsim>(*p.machine);
      }
      std::optional<sim::AssembledProgram> prog;
      {
        Scope s("sim.assemble");
        sim::Assembler assembler(p.xsim->signatures());
        prog = assembler.assemble(p.kernel.bench.source, diags);
      }
      if (!prog)
        throw std::runtime_error(name(p) + ": " + diags.dump());
      std::string err;
      {
        Scope s("sim.load");
        if (!p.xsim->loadProgram(*prog, &err))
          throw std::runtime_error(name(p) + ": " + err);
      }
      programs_.push_back(std::move(p));
    }
  }

  OpOutcome run(std::size_t input) override {
    Program& p = programs_[input];
    p.xsim->reset();
    sim::RunResult r = p.xsim->run(p.kernel.bench.maxCycles);
    p.xsim->drainPipeline();
    return finish(p, r, false);
  }

  OpOutcome replay(std::size_t input, bool wantDetail) override {
    Program& p = programs_[input];
    {
      Scope s("sim.reset");
      p.xsim->reset();
    }
    sim::RunResult r;
    {
      Scope s("sim.run");
      r = p.xsim->run(p.kernel.bench.maxCycles);
      s.count(p.xsim->stats().cycles);
    }
    p.xsim->drainPipeline();
    return finish(p, r, wantDetail);
  }

 private:
  struct Program {
    Kernel kernel;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<sim::Xsim> xsim;  ///< declared after the machine it uses
  };

  static std::string name(const Program& p) {
    return p.kernel.arch + "/" + p.kernel.bench.name;
  }

  static OpOutcome finish(const Program& p, const sim::RunResult& r,
                          bool wantDetail) {
    OpOutcome out;
    const sim::Stats& st = p.xsim->stats();
    out.signature = statsSignature(st);
    out.simCycles = st.cycles;
    out.simStalls = st.dataStallCycles + st.structStallCycles;
    if (r.reason != sim::StopReason::Halted)
      fail(out, name(p) + " did not halt: " + sim::stopReasonName(r.reason) +
                    " " + r.message);
    else if (std::string e = checkAnswer(*p.xsim, p.kernel.answer); !e.empty())
      fail(out, name(p) + ": " + e);
    if (wantDetail) out.detail = hashState(*p.xsim);
    return out;
  }

  std::vector<Program> programs_;
};

// --- power -------------------------------------------------------------------

/// One evaluateIsdl(..., measurePower = true) on a bundled arch x kernel pair.
class PowerWorkload : public Workload {
 public:
  unsigned clients() const override { return 1; }
  std::size_t poolSize() const override { return kernels_.size(); }

  void setup(std::uint64_t) override { kernels_ = bundledKernels(); }

  OpOutcome run(std::size_t input) override {
    const Kernel& k = kernels_[input];
    return finish(k, ex::evaluateIsdl(k.isdl, k.bench.source, options()), "");
  }

  OpOutcome replay(std::size_t input, bool wantDetail) override {
    const Kernel& k = kernels_[input];
    EvalReplay r = replayEvaluate(k.isdl, k.bench.source, k.answer, options(),
                                  wantDetail);
    OpOutcome out = finish(k, r.ev, r.checkError);
    out.detail = r.stateHash;
    return out;
  }

 private:
  static ex::EvaluateOptions options() {
    ex::EvaluateOptions o;
    o.measurePower = true;
    return o;
  }

  static OpOutcome finish(const Kernel& k, const ex::Evaluation& ev,
                          const std::string& checkError) {
    OpOutcome out;
    const std::string name = k.arch + "/" + k.bench.name;
    out.signature = evaluationSignature(ev);
    out.simCycles = ev.cycles;
    out.simStalls = ev.dataStallCycles + ev.structStallCycles;
    if (!ev.ok) fail(out, name + ": " + ev.error);
    if (!checkError.empty()) fail(out, name + ": " + checkError);
    return out;
  }

  std::vector<Kernel> kernels_;
};

// --- fuzz --------------------------------------------------------------------

/// testing::runFuzz over one fresh generated machine: four generated programs,
/// each through the interp / uop / gatesim oracle. Op n fuzzes the machine of
/// seed mixSeed(run seed, n), so every op's input is a distinct machine.
class FuzzWorkload : public Workload {
 public:
  unsigned clients() const override { return 4; }
  std::size_t poolSize() const override { return 0; }

  void setup(std::uint64_t seed) override { seed_ = seed; }

  OpOutcome run(std::size_t input) override {
    const isdl::testing::FuzzOutcome o = isdl::testing::runFuzz(config(input));
    OpOutcome out;
    out.pairs = o.pairs;
    out.signature = signature(o.pairs, o.halted, o.trapped, o.hardwareChecked,
                              o.generatorErrors, o.failures.size());
    if (o.generatorErrors)
      fail(out, cat("machine seed ", config(input).seed,
                    ": generator error"));
    for (const auto& f : o.failures)
      fail(out, cat("machine seed ", f.machineSeed, ": ", f.divergence));
    return out;
  }

  OpOutcome replay(std::size_t input, bool wantDetail) override {
    return replayMachine(input, wantDetail, config(input).checkHardware);
  }

  bool runReportsCycles() const override { return false; }
  std::uint64_t simCyclesOf(std::size_t input) override {
    return replayMachine(input, false, false).simCycles;
  }

 private:
  /// runFuzz's work for machine index 0 (testing/fuzzer.cpp fuzzOneMachine)
  /// with DifferentialOracle::run (testing/oracle.cpp) unrolled into its
  /// engine runs and, when `hardware` is set, the hardware comparison.
  OpOutcome replayMachine(std::size_t input, bool wantDetail, bool hardware) {
    namespace ft = isdl::testing;
    const ft::FuzzConfig cfg = config(input);
    const std::uint64_t machineSeed = cfg.seed;  // index 0 uses it verbatim
    OpOutcome out;
    Hasher detail;
    std::uint64_t halted = 0, trapped = 0, hwChecked = 0, failures = 0;
    bool generatorError = false;
    auto finish = [&] {
      out.signature = signature(out.pairs, halted, trapped, hwChecked,
                                generatorError, failures);
      if (wantDetail) out.detail = detail.value();
      return out;
    };

    std::string source;
    {
      Scope s("testing.machinegen");
      std::mt19937_64 rng(machineSeed);
      ft::MachineSpec spec = ft::randomMachineSpec(rng, cfg.gen);
      spec.seed = machineSeed;
      spec.name = "FUZZ0";
      source = ft::emitIsdl(spec);
    }
    DiagnosticEngine diags;
    std::unique_ptr<Machine> m;
    {
      Scope s("isdl.parse");
      m = isdl::parseIsdl(source, diags);
    }
    bool clean = m != nullptr;
    if (m) {
      Scope s("isdl.sema");
      clean = isdl::checkMachine(*m, diags);
    }
    if (!clean) {
      generatorError = true;
      fail(out, cat("machine seed ", machineSeed,
                    ": generated description rejected: ", diags.dump()));
      return finish();
    }

    try {
      std::unique_ptr<sim::Xsim> uop, interp;
      {
        Scope s("sim.build");
        uop = std::make_unique<sim::Xsim>(*m);
      }
      {
        Scope s("sim.build");
        interp = std::make_unique<sim::Xsim>(*m);
        interp->setUopEnabled(false);
      }
      sim::Assembler assembler(uop->signatures());
      std::unique_ptr<isdl::hw::HwModel> model;
      for (unsigned p = 0; p < cfg.programsPerMachine; ++p) {
        std::vector<std::string> lines;
        {
          Scope s("testing.programgen");
          std::mt19937_64 prng(ft::mixSeed(machineSeed, p + 1));
          lines = ft::randomAssemblyProgram(*m, uop->signatures(), prng,
                                            cfg.programLength);
        }
        std::optional<sim::AssembledProgram> prog;
        {
          Scope s("sim.assemble");
          DiagnosticEngine adiags;
          prog = assembler.assemble(isdl::join(lines, "\n") + "\n", adiags);
        }
        if (!prog) {
          generatorError = true;
          fail(out, cat("machine seed ", machineSeed, " program ", p,
                        ": generated program rejected"));
          continue;
        }

        std::vector<std::string> div;
        sim::RunResult ri;
        bool hwCompared = false;
        {
          Scope s("testing.oracle");
          std::string err;
          bool loaded;
          {
            Scope l("sim.load");
            loaded = uop->loadProgram(*prog, &err) &&
                     interp->loadProgram(*prog, &err);
          }
          if (!loaded) {
            div.push_back("program failed to load: " + err);
          } else {
            sim::RunResult ru;
            {
              Scope r("sim.run");
              ri = interp->run(cfg.maxCycles);
              r.count(interp->stats().cycles);
            }
            {
              Scope r("sim.run");
              ru = uop->run(cfg.maxCycles);
              r.count(uop->stats().cycles);
            }
            if (ru.reason != ri.reason || ru.message != ri.message)
              div.push_back(cat("stop: uop=", sim::stopReasonName(ru.reason),
                                " interp=", sim::stopReasonName(ri.reason)));
            uop->drainPipeline();
            interp->drainPipeline();
            ft::compareStats(uop->stats(), interp->stats(), "uop", "interp",
                             div);
            ft::compareFinalState(*m, *uop, *interp, "uop", "interp", div);
            for (const sim::Xsim* x : {interp.get(), uop.get()}) {
              out.simCycles += x->stats().cycles;
              out.simStalls += x->stats().dataStallCycles +
                               x->stats().structStallCycles;
            }
            if (hardware && ri.reason == sim::StopReason::Halted) {
              if (!model) {
                {
                  Scope d("hw.datapath");
                  model = std::make_unique<isdl::hw::HwModel>(
                      isdl::hw::buildDatapath(*m, uop->signatures()));
                  d.count(model->netlist.nodes.size());
                }
                Scope sh("hw.share");
                isdl::hw::shareResources(*model, *m);
                sh.count(model->netlist.nodes.size());
              }
              Scope g("synth.gatesim");
              ft::compareWithHardware(*m, *interp, *model, *prog,
                                      cfg.maxCycles, div);
              hwCompared = true;
            }
          }
        }
        ++out.pairs;
        if (ri.reason == sim::StopReason::Halted) ++halted;
        if (ri.reason == sim::StopReason::RuntimeError) ++trapped;
        if (hwCompared) ++hwChecked;
        detail.u64(static_cast<std::uint64_t>(ri.reason))
            .u64(statsSignature(uop->stats()))
            .u64(hashState(*uop));
        if (!div.empty()) {
          ++failures;
          fail(out, cat("machine seed ", machineSeed, " program ", p, ": ",
                        isdl::join(div, "; ")));
          break;  // as runFuzz: later programs would re-find the same bug
        }
      }
    } catch (const std::exception& e) {
      generatorError = true;
      fail(out, cat("machine seed ", machineSeed,
                    ": tool construction threw: ", e.what()));
    }
    return finish();
  }

  isdl::testing::FuzzConfig config(std::size_t input) const {
    isdl::testing::FuzzConfig cfg;
    cfg.seed = isdl::testing::mixSeed(seed_, input);
    cfg.machines = 1;
    cfg.jobs = 1;
    cfg.shrink = false;  // a failed op is reported, not minimised
    return cfg;
  }

  static std::uint64_t signature(std::uint64_t pairs, std::uint64_t halted,
                                 std::uint64_t trapped, std::uint64_t hw,
                                 std::uint64_t generatorErrors,
                                 std::uint64_t failures) {
    return Hasher()
        .u64(pairs)
        .u64(halted)
        .u64(trapped)
        .u64(hw)
        .u64(generatorErrors)
        .u64(failures)
        .value();
  }

  std::uint64_t seed_ = 0;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"explore", "sim", "power",
                                                 "fuzz"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "explore") return std::make_unique<ExploreWorkload>();
  if (name == "sim") return std::make_unique<SimWorkload>();
  if (name == "power") return std::make_unique<PowerWorkload>();
  if (name == "fuzz") return std::make_unique<FuzzWorkload>();
  return nullptr;
}

}  // namespace perfbench
