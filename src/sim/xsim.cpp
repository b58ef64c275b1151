#include "sim/xsim.h"

#include "support/strings.h"

namespace isdl::sim {

const char* stopReasonName(StopReason r) {
  switch (r) {
    case StopReason::Halted: return "halted";
    case StopReason::Breakpoint: return "breakpoint";
    case StopReason::MaxCycles: return "max cycles";
    case StopReason::MaxInstructions: return "max instructions";
    case StopReason::IllegalInstruction: return "illegal instruction";
    case StopReason::PcOutOfRange: return "PC out of range";
    case StopReason::RuntimeError: return "runtime error";
  }
  return "?";
}

Xsim::Xsim(const Machine& machine)
    : machine_(&machine),
      sigs_(machine, sigDiags_),
      disasm_(sigs_),
      state_(machine),
      uops_(std::make_unique<uop::UopTable>(machine)),
      engine_(machine, state_) {
  engine_.setStatsSink(&stats_);
  setUopEnabled(true);
  if (!sigs_.valid())
    throw IsdlError("assembly function is not decodeable:\n" +
                    sigDiags_.dump());

  initStats();
}

void Xsim::setUopEnabled(bool enabled) {
  engine_.setUopTable(enabled && uops_->narrow() ? uops_.get() : nullptr);
}

void Xsim::initStats() {
  stats_ = Stats{};
  stats_.opCount.clear();
  for (const auto& field : machine_->fields)
    stats_.opCount.emplace_back(field.operations.size(), 0);
  stats_.fieldUtilization.assign(machine_->fields.size(), 0);
  stats_.dataStallsByStorage.assign(machine_->storages.size(), 0);
  stats_.structStallsByField.assign(machine_->fields.size(), 0);
  if (traceBuf_) traceBuf_->clear();
  if (profiling_) heat_.clear();
}

bool Xsim::loadProgram(const AssembledProgram& prog, std::string* error) {
  // Validate and decode before touching any state, so a rejected image
  // leaves the previous program loaded.
  auto fail = [&](std::string msg) {
    if (error) *error = std::move(msg);
    return false;
  };
  const unsigned imem = static_cast<unsigned>(machine_->imemIndex);
  if (prog.words.size() > state_.depth(imem))
    return fail(cat("program (", prog.words.size(),
                      " words) does not fit in instruction memory (depth ",
                      state_.depth(imem), ")"));
  const int dmIndex = machine_->dataMemoryIndex();
  for (const auto& record : prog.dataInit) {
    if (dmIndex < 0)
      return fail(".dm record but the machine has no data_memory");
    if (record.first >= state_.depth(dmIndex))
      return fail(cat(".dm address ", record.first, " out of range"));
  }

  // Off-line disassembly (paper §3.1): decode the whole program region now.
  DecodedProgram decoded = disasm_.decodeProgram(prog.words, prog.words.size());
  if (!prog.words.empty() && !decoded.hasInstructionAt(0)) {
    std::string msg;
    disasm_.decodeAt(prog.words, 0, &msg);
    return fail("no decodable instruction at address 0: " + msg);
  }

  decoded_ = std::move(decoded);
  programWords_ = prog.words;
  programData_ = prog.dataInit;
  reset();
  return true;
}

void Xsim::reset() {
  // Restores state, statistics and memory images but keeps the off-line
  // disassembly: the program words are the ones decoded_ was built from, so
  // re-running the decoder (which dominates loadProgram) is pure waste.
  // Benchmarks and the exploration loop reset once per measured run.
  state_.reset();
  engine_.reset();
  initStats();
  warnedSelfModify_ = false;

  const unsigned imem = static_cast<unsigned>(machine_->imemIndex);
  for (std::size_t i = 0; i < programWords_.size(); ++i)
    state_.write(imem, i, programWords_[i], 0);
  const int dmIndex = machine_->dataMemoryIndex();
  for (const auto& [addr, value] : programData_)
    state_.write(static_cast<unsigned>(dmIndex), addr, value, 0);
  state_.setPc(0, 0);
}

std::optional<RunResult> Xsim::executeOne() {
  std::uint64_t addr = state_.pc();
  if (!decoded_.hasInstructionAt(addr)) {
    if (addr >= decoded_.byAddress.size())
      return RunResult{StopReason::PcOutOfRange,
                       cat("PC = ", addr, " is outside the loaded program (",
                           decoded_.byAddress.size(), " words)")};
    // Rebuild the message with a fresh decode attempt.
    const unsigned imem = static_cast<unsigned>(machine_->imemIndex);
    std::vector<BitVector> image;
    for (std::size_t i = 0; i < decoded_.byAddress.size(); ++i)
      image.push_back(state_.read(imem, i));
    std::string msg;
    disasm_.decodeAt(image, addr, &msg);
    return RunResult{StopReason::IllegalInstruction, msg};
  }

  const DecodedInstruction& inst = decoded_.byAddress[addr];
  if (trace_) trace_(addr);

  ExecEngine::IssueInfo info = engine_.issue(inst);
  if (!info.ok)
    return RunResult{StopReason::RuntimeError,
                     cat("at address ", addr, ": ", info.error)};

  stats_.instructions += 1;
  stats_.dataStallCycles += info.dataStallCycles;
  stats_.structStallCycles += info.structStallCycles;
  for (std::size_t f = 0; f < inst.ops.size(); ++f) {
    stats_.opCount[f][inst.ops[f].opIndex] += 1;
    if (static_cast<int>(inst.ops[f].opIndex) != machine_->fields[f].nopIndex)
      stats_.fieldUtilization[f] += 1;
  }
  stats_.cycles = engine_.cycle();

  if (!info.pcCommitted)
    state_.setPc(addr + inst.sizeWords, engine_.cycle());

  const std::optional<OpRef>& halt = machine_->haltOp;
  if (halt && inst.ops[halt->fieldIndex].opIndex == halt->opIndex)
    return RunResult{StopReason::Halted, {}};
  return std::nullopt;
}

RunResult Xsim::run(std::uint64_t maxCycles) {
  ++registry_.counter("sim/runs");
  obs::ScopedTimer timer = registry_.time("sim/run_ns");
  bool first = true;
  for (;;) {
    if (engine_.cycle() >= maxCycles)
      return {StopReason::MaxCycles,
              cat("cycle budget of ", maxCycles, " exhausted")};
    std::uint64_t addr = state_.pc();
    if (!first && breakpoints_.count(addr)) {
      if (breakpointHook_) breakpointHook_(addr);
      return {StopReason::Breakpoint, cat("breakpoint at address ", addr)};
    }
    first = false;
    if (auto stop = executeOne()) return *stop;
  }
}

RunResult Xsim::step(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (auto stop = executeOne()) return *stop;
  }
  return {StopReason::MaxInstructions, {}};
}

// --- XTRACE observability ----------------------------------------------------

void Xsim::enableTrace(std::size_t capacity) {
  traceBuf_ = std::make_unique<obs::TraceBuffer>(capacity);
  engine_.setTrace(traceBuf_.get());
}

void Xsim::disableTrace() {
  engine_.setTrace(nullptr);
  traceBuf_.reset();
}

void Xsim::writeChromeTrace(std::ostream& out) const {
  if (traceBuf_) {
    obs::writeChromeTrace(out, *traceBuf_, nameTable());
  } else {
    obs::TraceBuffer empty(1);
    obs::writeChromeTrace(out, empty, nameTable());
  }
}

void Xsim::enableProfile() {
  if (profiling_) return;
  std::vector<std::uint64_t> depths;
  depths.reserve(machine_->storages.size());
  for (const auto& st : machine_->storages) depths.push_back(st.depth);
  heat_.configure(depths);
  engine_.setHeatmap(&heat_);
  // Write side rides the monitor hook: every value-changing commit of any
  // storage lands here (reads are counted inside the core).
  state_.monitors().setWriteObserver([this](const WriteEvent& ev) {
    heat_.countWrite(ev.storageIndex, ev.element);
  });
  profiling_ = true;
}

void Xsim::disableProfile() {
  if (!profiling_) return;
  engine_.setHeatmap(nullptr);
  state_.monitors().setWriteObserver(nullptr);
  profiling_ = false;
}

obs::NameTable Xsim::nameTable() const {
  obs::NameTable names;
  names.machine = machine_->name;
  for (const auto& field : machine_->fields) {
    names.fields.push_back(field.name);
    names.ops.emplace_back();
    for (const auto& op : field.operations) names.ops.back().push_back(op.name);
  }
  for (const auto& st : machine_->storages) names.storages.push_back(st.name);
  return names;
}

obs::MetricsReport Xsim::metricsReport() const {
  obs::MetricsReport r;
  r.arch = machine_->name;
  r.cycles = stats_.cycles;
  r.instructions = stats_.instructions;
  r.dataStallCycles = stats_.dataStallCycles;
  r.structStallCycles = stats_.structStallCycles;

  for (std::size_t f = 0; f < machine_->fields.size(); ++f) {
    const Field& field = machine_->fields[f];
    r.utilization.push_back({field.name, stats_.fieldUtilization[f]});
    for (std::size_t o = 0; o < field.operations.size(); ++o)
      if (stats_.opCount[f][o])
        r.opCounts.push_back(
            {field.name, field.operations[o].name, stats_.opCount[f][o]});
    if (stats_.structStallsByField[f])
      r.structStallsByField.push_back(
          {field.name, stats_.structStallsByField[f]});
  }
  for (std::size_t si = 0; si < machine_->storages.size(); ++si)
    if (stats_.dataStallsByStorage[si])
      r.dataStallsByProducer.push_back(
          {machine_->storages[si].name, stats_.dataStallsByStorage[si]});

  if (profiling_) {
    for (std::size_t si = 0; si < machine_->storages.size(); ++si) {
      bool any = false;
      for (std::uint64_t c : heat_.reads[si]) any = any || c;
      for (std::uint64_t c : heat_.writes[si]) any = any || c;
      if (!any) continue;
      r.heatmaps.push_back(
          {machine_->storages[si].name, heat_.reads[si], heat_.writes[si]});
    }
  }

  r.counters = registry_.snapshot();
  return r;
}

void Xsim::writeMetricsJson(std::ostream& out) const {
  metricsReport().writeJson(out);
}

}  // namespace isdl::sim
