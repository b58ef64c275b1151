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
      binder_(machine),
      engine_(machine, state_, stats_) {
  setUopEnabled(true);
  if (!sigs_.valid())
    throw IsdlError("assembly function is not decodeable:\n" +
                    sigDiags_.dump());

  initStats();
}

void Xsim::initStats() {
  // Zeroes the counters in place: the vectors keep their storage across
  // loads and resets.
  stats_.cycles = 0;
  stats_.instructions = 0;
  stats_.dataStallCycles = 0;
  stats_.structStallCycles = 0;
  stats_.opCount.resize(machine_->fields.size());
  for (std::size_t f = 0; f < machine_->fields.size(); ++f)
    stats_.opCount[f].assign(machine_->fields[f].operations.size(), 0);
  stats_.fieldUtilization.assign(machine_->fields.size(), 0);
  stats_.dataStallsByStorage.assign(machine_->storages.size(), 0);
  stats_.structStallsByField.assign(machine_->fields.size(), 0);
  issues_.assign(decoded_.byAddress.size(), 0);
  blockIssues_ = 0;
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
  disasm_.decodeProgram(prog.words, prog.words.size(), spareDecoded_);
  if (!prog.words.empty() && !spareDecoded_.hasInstructionAt(0)) {
    std::string msg;
    DecodedProgram scratch;
    disasm_.decodeAt(prog.words, 0, scratch, &msg);
    return fail("no decodable instruction at address 0: " + msg);
  }

  std::swap(decoded_, spareDecoded_);
  if (useBound_) {
    binder_.bind(decoded_, spareBound_);
    std::swap(bound_, spareBound_);
  } else {
    bound_ = uop::BoundProgram{};
  }
  dropBlocks();
  programWords_ = prog.words;
  programData_ = prog.dataInit;
  reset();
  return true;
}

void Xsim::setUopEnabled(bool enabled) {
  useBound_ = enabled && binder_.narrow();
  if (useBound_ && bound_.byAddress.size() != decoded_.byAddress.size())
    binder_.bind(decoded_, bound_);  // loaded under the interpreter
  dropBlocks();
}

void Xsim::dropBlocks() {
  blockAt_.assign(decoded_.byAddress.size(), 0);
  blocks_.clear();
  blockRuns_.clear();
}

const uop::Block* Xsim::blockAt(std::uint64_t addr) {
  std::int32_t& at = blockAt_[addr];
  if (at > 0) return &blocks_[std::size_t(at - 1)];
  if (at == 0) {
    at = kSeenOnce;  // code that runs once pays only this
  } else if (at == kSeenOnce) {
    uop::Block block;
    if (!binder_.buildBlock(decoded_, bound_, addr, block)) {
      at = kIneligible;
      return nullptr;
    }
    blocks_.push_back(std::move(block));
    blockRuns_.push_back(0);
    at = std::int32_t(blocks_.size());
    return &blocks_.back();
  }
  return nullptr;
}

void Xsim::reset() {
  // Restores state, statistics and memory images but keeps the off-line
  // disassembly and the bound records: the program words are the ones
  // decoded_ was built from, so re-running the decoder (which dominates
  // loadProgram) or the binder is pure waste. Benchmarks and the
  // exploration loop reset once per measured run.
  state_.reset();
  engine_.reset();
  initStats();

  const unsigned imem = static_cast<unsigned>(machine_->imemIndex);
  for (std::size_t i = 0; i < programWords_.size(); ++i)
    state_.write(imem, i, programWords_[i], 0);
  const int dmIndex = machine_->dataMemoryIndex();
  for (const auto& [addr, value] : programData_)
    state_.write(static_cast<unsigned>(dmIndex), addr, value, 0);
  state_.setPc(0, 0);
}

RunResult Xsim::undecodedStop(std::uint64_t addr) const {
  if (addr >= decoded_.byAddress.size())
    return {StopReason::PcOutOfRange,
            cat("PC = ", addr, " is outside the loaded program (",
                decoded_.byAddress.size(), " words)")};
  // Rebuild the message with a fresh decode attempt.
  const unsigned imem = static_cast<unsigned>(machine_->imemIndex);
  std::vector<BitVector> image;
  for (std::size_t i = 0; i < decoded_.byAddress.size(); ++i)
    image.push_back(state_.read(imem, i));
  std::string msg;
  DecodedProgram scratch;
  disasm_.decodeAt(image, addr, scratch, &msg);
  return {StopReason::IllegalInstruction, msg};
}

void Xsim::foldIssues() {
  const unsigned pc = unsigned(machine_->pcIndex);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const std::uint64_t n = blockRuns_[b];
    if (n == 0) continue;
    blockRuns_[b] = 0;
    const uop::Block& block = blocks_[b];
    for (const std::uint64_t a : block.addresses) issues_[a] += n;
    blockIssues_ += n * block.addresses.size();
    if (!profiling_) continue;
    for (const uop::Block::Count& c : block.reads)
      heat_.countRead(c.si, c.elem, n * c.n);
    // The PC moves to the next instruction after each but the last, a
    // change of its value: a block ends before an address it cannot hold.
    if (block.addresses.size() > 1)
      heat_.countWrite(pc, 0, n * (block.addresses.size() - 1));
  }
  for (std::size_t addr = 0; addr < issues_.size(); ++addr) {
    const std::uint64_t n = issues_[addr];
    if (n == 0) continue;
    issues_[addr] = 0;
    const DecodedOp* ops = decoded_.opsOf(decoded_.byAddress[addr]);
    stats_.instructions += n;
    for (std::size_t f = 0; f < machine_->fields.size(); ++f) {
      stats_.opCount[f][ops[f].opIndex] += n;
      if (static_cast<int>(ops[f].opIndex) != machine_->fields[f].nopIndex)
        stats_.fieldUtilization[f] += n;
    }
  }
}

/// Folds the issue counts however run() or step() returns.
struct Xsim::FoldOnReturn {
  Xsim& sim;
  ~FoldOnReturn() { sim.foldIssues(); }
};

RunResult Xsim::run(std::uint64_t maxCycles) {
  ++registry_.counter("sim/runs");
  obs::ScopedTimer timer = registry_.time("sim/run_ns");
  return execute(maxCycles, ~std::uint64_t{0}, true);
}

RunResult Xsim::step(std::uint64_t n) {
  return execute(~std::uint64_t{0}, n, false);
}

RunResult Xsim::execute(std::uint64_t maxCycles, std::uint64_t maxInstructions,
                        bool breakpoints) {
  FoldOnReturn fold{*this};
  uop::BoundProgram* const bound = useBound_ ? &bound_ : nullptr;
  // Blocks run under run() with nothing watching but the profile, whose
  // counts a block carries; an observer armed by a callback can only come
  // from one already armed.
  const bool blocks = bound && breakpoints && breakpoints_.empty() &&
                      !trace_ && !traceBuf_ && state_.monitors().empty();
  for (bool first = true;; first = false) {
    if (engine_.cycle() >= maxCycles)
      return {StopReason::MaxCycles,
              cat("cycle budget of ", maxCycles, " exhausted")};
    if (maxInstructions-- == 0) return {StopReason::MaxInstructions, {}};
    const std::uint64_t addr = state_.pc();
    if (breakpoints && !first && !breakpoints_.empty() &&
        breakpoints_.count(addr)) {
      if (breakpointHook_) {
        foldIssues();
        breakpointHook_(addr);
      }
      return {StopReason::Breakpoint, cat("breakpoint at address ", addr)};
    }
    if (!decoded_.hasInstructionAt(addr)) return undecodedStop(addr);

    // At a leader, the whole block when it fits the budget. A trap leaves
    // the engine as it was, and the leader issues alone below.
    if (blocks && engine_.idle()) {
      const uop::Block* block = blockAt(addr);
      bool branched = false;
      if (block && block->cycles <= maxCycles - engine_.cycle() &&
          engine_.runBlock(bound_, *block, branched)) {
        ++blockRuns_[std::size_t(block - blocks_.data())];
        if (!branched) state_.setPc(block->next, engine_.cycle());
        if (block->halts) return {StopReason::Halted, {}};
        continue;
      }
    }

    const DecodedInstruction& inst = decoded_.byAddress[addr];
    if (trace_) trace_(addr);
    bool branched;
    try {
      branched = engine_.issue(decoded_, inst, bound);
    } catch (const rtl::EvalError& e) {
      return {StopReason::RuntimeError,
              cat("at address ", addr, ": ", e.what())};
    }
    ++issues_[addr];
    if (!branched) state_.setPc(addr + inst.sizeWords, engine_.cycle());
    if (inst.halts) return {StopReason::Halted, {}};
  }
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
  state_.setHeatmap(&heat_);
  profiling_ = true;
}

void Xsim::disableProfile() {
  if (!profiling_) return;
  engine_.setHeatmap(nullptr);
  state_.setHeatmap(nullptr);
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
  const Stats& st = stats();
  r.cycles = st.cycles;
  r.instructions = st.instructions;
  r.dataStallCycles = st.dataStallCycles;
  r.structStallCycles = st.structStallCycles;

  for (std::size_t f = 0; f < machine_->fields.size(); ++f) {
    const Field& field = machine_->fields[f];
    r.utilization.push_back({field.name, st.fieldUtilization[f]});
    for (std::size_t o = 0; o < field.operations.size(); ++o)
      if (st.opCount[f][o])
        r.opCounts.push_back(
            {field.name, field.operations[o].name, st.opCount[f][o]});
    if (st.structStallsByField[f])
      r.structStallsByField.push_back(
          {field.name, st.structStallsByField[f]});
  }
  for (std::size_t si = 0; si < machine_->storages.size(); ++si)
    if (st.dataStallsByStorage[si])
      r.dataStallsByProducer.push_back(
          {machine_->storages[si].name, st.dataStallsByStorage[si]});

  if (profiling_) {
    r.heatmaps.reserve(machine_->storages.size());
    for (std::size_t si = 0; si < machine_->storages.size(); ++si)
      r.addHeat(machine_->storages[si].name, machine_->storages[si].depth,
                heat_.reads[si], heat_.writes[si]);
  }

  r.counters = registry_.snapshot();
  return r;
}

void Xsim::writeMetricsJson(std::ostream& out) const {
  metricsReport().writeJson(out);
}

}  // namespace isdl::sim
