#include "sim/cli.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "support/strings.h"

namespace isdl::sim {

namespace {

std::vector<std::string> words(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string w;
  while (is >> w) {
    if (w[0] == '#' || w[0] == ';') break;
    out.push_back(w);
  }
  return out;
}

}  // namespace

Cli::Cli(Xsim& sim, std::ostream& out)
    : sim_(sim), out_(out), assembler_(sim.signatures()) {
  sim_.setBreakpointHook([this](std::uint64_t addr) {
    auto it = attachedCommands_.find(addr);
    if (it != attachedCommands_.end()) execute(it->second);
  });
}

Cli::~Cli() {
  flushObservability();
  for (int h : monitorHandles_) sim_.monitors().remove(h);
  sim_.setBreakpointHook(nullptr);
  sim_.setTraceCallback(nullptr);
}

void Cli::stopChromeTrace() {
  std::ofstream out(chromeTracePath_);
  if (!out) {
    error(cat("cannot open '", chromeTracePath_, "'"));
  } else {
    sim_.writeChromeTrace(out);
    const obs::TraceBuffer* buf = sim_.trace();
    out_ << "wrote " << (buf ? buf->size() : 0) << " events to "
         << chromeTracePath_ << "\n";
  }
  chromeTracePath_.clear();
  sim_.disableTrace();
}

void Cli::dumpProfile(const std::string& path) {
  if (path.empty()) {
    sim_.writeMetricsJson(out_);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    error(cat("cannot open '", path, "'"));
    return;
  }
  sim_.writeMetricsJson(out);
  out_ << "wrote metrics to " << path << "\n";
}

void Cli::flushObservability() {
  if (!chromeTracePath_.empty()) stopChromeTrace();
  if (!profilePath_.empty()) {
    dumpProfile(profilePath_);
    profilePath_.clear();
  }
}

void Cli::error(const std::string& message) {
  ++errors_;
  out_ << "error: " << message << "\n";
}

bool Cli::parseStorageRef(const std::vector<std::string>& w, std::size_t at,
                          int& storageIndex, std::uint64_t& element,
                          std::size_t& consumed) {
  if (at >= w.size()) {
    error("expected a storage name");
    return false;
  }
  const Machine& m = sim_.machine();
  storageIndex = m.findStorage(w[at]);
  element = 0;
  consumed = 1;
  if (storageIndex < 0) {
    // Aliases resolve to their target.
    int ai = m.findAlias(w[at]);
    if (ai >= 0) {
      storageIndex = static_cast<int>(m.aliases[ai].storageIndex);
      if (m.aliases[ai].element) element = *m.aliases[ai].element;
      return true;
    }
    error(cat("unknown storage '", w[at], "'"));
    return false;
  }
  if (isAddressed(m.storages[storageIndex].kind)) {
    if (at + 1 >= w.size()) {
      error(cat("storage '", w[at], "' needs an index"));
      return false;
    }
    element = std::strtoull(w[at + 1].c_str(), nullptr, 0);
    consumed = 2;
  }
  return true;
}

void Cli::printStats() {
  const Stats& s = sim_.stats();
  out_ << "cycles " << s.cycles << " instructions " << s.instructions
       << " data-stalls " << s.dataStallCycles << " struct-stalls "
       << s.structStallCycles << "\n";
  const Machine& m = sim_.machine();
  for (std::size_t f = 0; f < m.fields.size(); ++f) {
    out_ << "  field " << m.fields[f].name << " utilization "
         << s.fieldUtilization[f] << "/" << s.instructions << "\n";
    for (std::size_t o = 0; o < m.fields[f].operations.size(); ++o) {
      if (s.opCount[f][o] == 0) continue;
      out_ << "    " << m.fields[f].operations[o].name << " "
           << s.opCount[f][o] << "\n";
    }
  }
  for (std::size_t si = 0; si < m.storages.size(); ++si)
    if (s.dataStallsByStorage[si])
      out_ << "  data stalls on " << m.storages[si].name << " "
           << s.dataStallsByStorage[si] << "\n";
  for (std::size_t f = 0; f < m.fields.size(); ++f)
    if (s.structStallsByField[f])
      out_ << "  struct stalls on " << m.fields[f].name << " "
           << s.structStallsByField[f] << "\n";
}

bool Cli::execute(const std::string& line) {
  std::vector<std::string> w = words(line);
  if (w.empty()) return true;
  const std::string& cmd = w[0];
  const Machine& m = sim_.machine();

  if (cmd == "quit") {
    flushObservability();
    return false;
  }

  if (cmd == "echo") {
    for (std::size_t i = 1; i < w.size(); ++i)
      out_ << (i > 1 ? " " : "") << w[i];
    out_ << "\n";
    return true;
  }

  if (cmd == "asm") {
    if (w.size() < 2) {
      error("asm needs a file name");
      return true;
    }
    std::ifstream file(w[1]);
    if (!file) {
      error(cat("cannot open '", w[1], "'"));
      return true;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    DiagnosticEngine diags;
    auto prog = assembler_.assemble(buffer.str(), diags);
    if (!prog) {
      error("assembly failed:\n" + diags.dump());
      return true;
    }
    std::string err;
    if (!sim_.loadProgram(*prog, &err))
      error(err);
    else
      out_ << "loaded " << prog->words.size() << " words\n";
    return true;
  }

  if (cmd == "run") {
    std::uint64_t budget =
        w.size() > 1 ? std::strtoull(w[1].c_str(), nullptr, 0)
                     : 100'000'000ull;
    RunResult r = sim_.run(budget);
    out_ << "stopped: " << stopReasonName(r.reason);
    if (!r.message.empty()) out_ << " (" << r.message << ")";
    out_ << " at pc " << sim_.state().pc() << " cycle " << sim_.cycle()
         << "\n";
    return true;
  }

  if (cmd == "step") {
    std::uint64_t n =
        w.size() > 1 ? std::strtoull(w[1].c_str(), nullptr, 0) : 1;
    RunResult r = sim_.step(n);
    if (r.reason != StopReason::MaxInstructions)
      out_ << "stopped: " << stopReasonName(r.reason) << "\n";
    out_ << "pc " << sim_.state().pc() << " cycle " << sim_.cycle() << "\n";
    return true;
  }

  if (cmd == "break") {
    if (w.size() < 2) {
      error("break needs an address");
      return true;
    }
    std::uint64_t addr = std::strtoull(w[1].c_str(), nullptr, 0);
    sim_.addBreakpoint(addr);
    if (w.size() > 2) {
      std::string attached;
      for (std::size_t i = 2; i < w.size(); ++i)
        attached += (i > 2 ? " " : "") + w[i];
      attachedCommands_[addr] = attached;
    }
    return true;
  }

  if (cmd == "delete") {
    if (w.size() < 2) {
      error("delete needs an address");
      return true;
    }
    std::uint64_t addr = std::strtoull(w[1].c_str(), nullptr, 0);
    sim_.removeBreakpoint(addr);
    attachedCommands_.erase(addr);
    return true;
  }

  if (cmd == "x") {
    int si;
    std::uint64_t element;
    std::size_t consumed;
    if (!parseStorageRef(w, 1, si, element, consumed)) return true;
    sim_.drainPipeline();
    const BitVector& v = sim_.state().read(static_cast<unsigned>(si), element);
    out_ << m.storages[si].name;
    if (isAddressed(m.storages[si].kind)) out_ << "[" << element << "]";
    out_ << " = " << v.toHexString() << " (" << v.toUnsignedDecimalString()
         << ")\n";
    return true;
  }

  if (cmd == "set") {
    int si;
    std::uint64_t element;
    std::size_t consumed;
    if (!parseStorageRef(w, 1, si, element, consumed)) return true;
    if (1 + consumed >= w.size()) {
      error("set needs a value");
      return true;
    }
    try {
      BitVector v = BitVector::fromString(m.storages[si].width,
                                          w[1 + consumed]);
      sim_.state().write(static_cast<unsigned>(si), element, v, sim_.cycle());
    } catch (const std::invalid_argument& e) {
      error(e.what());
    }
    return true;
  }

  if (cmd == "disasm") {
    if (w.size() < 2) {
      error("disasm needs an address");
      return true;
    }
    std::uint64_t addr = std::strtoull(w[1].c_str(), nullptr, 0);
    std::uint64_t count =
        w.size() > 2 ? std::strtoull(w[2].c_str(), nullptr, 0) : 1;
    const DecodedProgram& prog = sim_.decodedProgram();
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!prog.hasInstructionAt(addr)) {
        out_ << addr << ": <not decodable>\n";
        break;
      }
      out_ << addr << ": " << sim_.disassembler().render(prog, addr) << "\n";
      addr += prog.byAddress[addr].sizeWords;
    }
    return true;
  }

  if (cmd == "monitor") {
    int si;
    std::uint64_t element;
    std::size_t consumed;
    if (!parseStorageRef(w, 1, si, element, consumed)) return true;
    std::optional<std::uint64_t> filter;
    if (isAddressed(m.storages[si].kind)) filter = element;
    std::string name = m.storages[si].name;
    int handle = sim_.monitors().add(
        static_cast<unsigned>(si), filter, [this, name](const WriteEvent& ev) {
          out_ << "monitor: " << name << "[" << ev.element << "] "
               << ev.oldValue.toHexString() << " -> "
               << ev.newValue.toHexString() << " at cycle " << ev.cycle
               << "\n";
        });
    monitorHandles_.push_back(handle);
    return true;
  }

  if (cmd == "trace") {
    if (w.size() > 1 && w[1] == "start") {
      if (w.size() < 3) {
        error("trace start needs a file name");
        return true;
      }
      if (!chromeTracePath_.empty()) stopChromeTrace();
      sim_.enableTrace();
      chromeTracePath_ = w[2];
      out_ << "event tracing to " << chromeTracePath_
           << " (Chrome trace-event JSON; stop with 'trace stop')\n";
      return true;
    }
    if (w.size() > 1 && w[1] == "stop") {
      if (chromeTracePath_.empty()) {
        error("no event trace is active (start one with 'trace start')");
        return true;
      }
      stopChromeTrace();
      return true;
    }
    if (w.size() > 1 && w[1] == "off") {
      sim_.setTraceCallback(nullptr);
      traceFile_.reset();
      return true;
    }
    if (w.size() < 2) {
      error("trace needs a file name or 'off'");
      return true;
    }
    traceFile_ = std::make_unique<std::ofstream>(w[1]);
    if (!*traceFile_) {
      error(cat("cannot open '", w[1], "'"));
      traceFile_.reset();
      return true;
    }
    std::ofstream* file = traceFile_.get();
    sim_.setTraceCallback([file](std::uint64_t addr) { *file << addr << "\n"; });
    return true;
  }

  if (cmd == "stats") {
    printStats();
    return true;
  }

  if (cmd == "engine") {
    if (w.size() > 1 && w[1] == "uop") {
      sim_.setUopEnabled(true);
    } else if (w.size() > 1 && w[1] == "interp") {
      sim_.setUopEnabled(false);
    } else if (w.size() > 1) {
      error(cat("unknown engine '", w[1], "' (expected 'uop' or 'interp')"));
      return true;
    }
    out_ << "execution engine: "
         << (sim_.uopEnabled() ? "uop (micro-op compiled)"
                               : "interp (tree-walking)");
    if (!sim_.binder().narrow())
      out_ << " [micro-op engine unavailable: a value exceeds 64 bits]";
    out_ << "\n";
    return true;
  }

  if (cmd == "profile") {
    if (w.size() > 1 && w[1] == "off") {
      sim_.disableProfile();
      profilePath_.clear();
      return true;
    }
    if (w.size() > 1 && w[1] == "dump") {
      dumpProfile(w.size() > 2 ? w[2] : std::string());
      return true;
    }
    sim_.enableProfile();
    if (w.size() > 1) {
      profilePath_ = w[1];
      out_ << "profiling enabled; metrics dumped to " << profilePath_
           << " on exit\n";
    } else {
      out_ << "profiling enabled (dump with 'profile dump [file]')\n";
    }
    return true;
  }

  if (cmd == "reset") {
    sim_.reset();
    return true;
  }

  error(cat("unknown command '", cmd, "'"));
  return true;
}

unsigned Cli::runScript(std::istream& script) {
  std::string line;
  while (std::getline(script, line)) {
    if (!execute(line)) break;
  }
  return errors_;
}

unsigned Cli::runScript(const std::string& scriptText) {
  std::istringstream is(scriptText);
  return runScript(is);
}

}  // namespace isdl::sim
