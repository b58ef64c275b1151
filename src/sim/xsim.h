// XSIM: the generated instruction-level simulator (paper §3). Where the
// paper's GENSIM emits C source compiled against a common library, this
// implementation constructs the same six components (Figure 2) directly from
// the Machine model at run time:
//
//   user interface / file I/O  -> sim/cli.h (command-line + batch interface)
//   scheduler                  -> Xsim::run/step (sequencing, breakpoints,
//                                 traces, attached commands)
//   state monitors             -> sim::Monitors
//   state                      -> sim::State
//   disassembler               -> sim::Disassembler (off-line, at load time)
//   processing core            -> sim::ExecEngine
//
// A separate generator (sim/codegen.h) also emits a standalone compiled-code
// C++ simulator, the paper's §6.2 "future work" extension: it prints the
// records the bound engine runs (sim/uop.h) as C++.

#ifndef ISDL_SIM_XSIM_H
#define ISDL_SIM_XSIM_H

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/assembler.h"
#include "sim/core.h"
#include "sim/disasm.h"
#include "sim/signature.h"
#include "sim/state.h"
#include "sim/stats.h"
#include "sim/uop.h"

namespace isdl::sim {

/// Why a run() / step() returned.
enum class StopReason {
  Halted,              ///< executed the architecture's halt operation
  Breakpoint,          ///< about to execute a breakpointed address
  MaxCycles,           ///< cycle budget exhausted
  MaxInstructions,     ///< instruction budget exhausted (step())
  IllegalInstruction,  ///< PC points at an undecodable word
  PcOutOfRange,        ///< PC left the loaded program region
  RuntimeError,        ///< RTL trap (out-of-range access, write conflict...)
};

const char* stopReasonName(StopReason r);

struct RunResult {
  StopReason reason = StopReason::MaxCycles;
  std::string message;  ///< details for error reasons
};

class Xsim {
 public:
  /// Builds the simulator for a checked Machine. Throws IsdlError if the
  /// description's assembly function is not decodeable. Stops on
  /// Machine::haltOp when the description names one.
  explicit Xsim(const Machine& machine);

  const Machine& machine() const { return *machine_; }
  State& state() { return state_; }
  const State& state() const { return state_; }
  Monitors& monitors() { return state_.monitors(); }
  const SignatureTable& signatures() const { return sigs_; }
  const Disassembler& disassembler() const { return disasm_; }

  /// Loads a program image: copies words into instruction memory, applies
  /// .dm data-memory records, runs the off-line disassembler, resets PC.
  /// Returns false (with a message), and leaves the previous program and
  /// all state untouched, if the image does not fit the memories or the
  /// program region contains no decodable instruction at address 0.
  bool loadProgram(const AssembledProgram& prog, std::string* error = nullptr);

  /// Resets state and statistics and reloads the last accepted program.
  void reset();

  /// Runs until a stop condition. The cycle budget is checked before each
  /// instruction issues: run() returns MaxCycles at the first instruction
  /// boundary where the cycle count has reached `maxCycles`, so the last
  /// instruction issued, with its stalls and its cycle window, may carry
  /// stats().cycles past the budget.
  ///
  /// With the bound engine and no breakpoint, trace callback, XTRACE trace
  /// or monitor armed, run() issues by block: at an address it reaches with
  /// nothing in flight and no unit busy (a leader), it runs the block that
  /// starts there under the schedule fixed when the block was first built
  /// (ExecEngine::runBlock), provided the whole block fits the cycle budget.
  /// The storage profile does not leave the block path: a block carries the
  /// heatmap counts its schedule fixes. A leader's block is built on its
  /// second arrival; blocks are kept across reset(), enableProfile() and
  /// disableProfile(), and dropped by loadProgram() and setUopEnabled().
  /// Every observable result, heatmaps included, is the per-instruction
  /// path's, which step(), the interpreter and the other observers keep
  /// using.
  RunResult run(std::uint64_t maxCycles = ~std::uint64_t{0});
  /// Executes up to `n` instructions (breakpoints are ignored while
  /// stepping, like in every debugger).
  RunResult step(std::uint64_t n = 1);

  // --- breakpoints & attached commands -------------------------------------
  void addBreakpoint(std::uint64_t addr) { breakpoints_.insert(addr); }
  void removeBreakpoint(std::uint64_t addr) { breakpoints_.erase(addr); }
  const std::set<std::uint64_t>& breakpoints() const { return breakpoints_; }
  /// Attached command: invoked when a breakpoint is hit, before stopping.
  void setBreakpointHook(std::function<void(std::uint64_t)> hook) {
    breakpointHook_ = std::move(hook);
  }

  // --- execution address trace (paper §3.1) ---------------------------------
  /// Called with the address of every issued instruction; pass nullptr to
  /// disable. The paper's "written into a file" mode is a callback that
  /// writes lines (see Cli).
  void setTraceCallback(std::function<void(std::uint64_t)> cb) {
    trace_ = std::move(cb);
  }

  /// Statistics since the last load or reset. Issue counts are kept per
  /// instruction while running and folded in when run() or step() returns
  /// and before the breakpoint hook runs; the trace callback and monitors,
  /// which run mid-instruction, see the counts of the last fold.
  const Stats& stats() const { return stats_; }
  std::uint64_t cycle() const { return engine_.cycle(); }
  /// The instructions run() has issued inside blocks since the last load
  /// or reset (a share of stats().instructions).
  std::uint64_t blockIssues() const { return blockIssues_; }

  // --- XTRACE observability (paper Figure 1's measurement edge) -------------
  /// Starts recording issue/stall/write-back events into a bounded ring
  /// buffer (oldest events are overwritten when it fills). Zero per-cycle
  /// cost while disabled.
  void enableTrace(std::size_t capacity = 1 << 16);
  void disableTrace();
  const obs::TraceBuffer* trace() const { return traceBuf_.get(); }
  /// Exports the recorded trace as Chrome trace-event JSON (loadable in
  /// chrome://tracing / Perfetto); an empty trace if tracing is off.
  void writeChromeTrace(std::ostream& out) const;

  /// Enables per-storage access heatmaps: reads counted in the core, writes
  /// in State's commit path, a block's fixed counts when run() returns.
  /// Cleared by loadProgram/reset. Each storage's counts cover only the
  /// elements the run touched, so arming costs nothing per element of a
  /// storage's depth.
  void enableProfile();
  void disableProfile();
  bool profiling() const { return profiling_; }

  /// Counter/timer registry; "sim/runs" and "sim/run_ns" are maintained by
  /// run() itself, callers may add their own (see obs/registry.h).
  obs::Registry& registry() { return registry_; }

  /// Field/op/storage names for obs exporters.
  obs::NameTable nameTable() const;
  /// The structured metrics report for everything since the last load:
  /// cycles, per-op issue counts, stall attribution, heatmaps, counters.
  obs::MetricsReport metricsReport() const;
  void writeMetricsJson(std::ostream& out) const;

  // --- execution engine selection -------------------------------------------
  /// Selects between the bound micro-op records (default; sim/uop.h) and the
  /// tree-walking interpreter. The two are bit-identical — the interpreter
  /// remains as the differential-testing oracle (`xsim --no-uop`). Machines
  /// with a value wider than 64 bits (Machine::widestValue, recorded by
  /// semantic analysis; uop::Binder::narrow) run on the interpreter whatever
  /// is requested; uopEnabled() reports the engine actually in use.
  /// Selecting the bound engine binds the loaded program if it was loaded
  /// under the interpreter.
  void setUopEnabled(bool enabled);
  bool uopEnabled() const { return useBound_; }
  const uop::Binder& binder() const { return binder_; }
  /// The loaded program's bound records, bound at load while the bound engine
  /// is selected (empty if the program has only run on the interpreter).
  const uop::BoundProgram& boundProgram() const { return bound_; }

  /// Commits in-flight delayed writes (call before inspecting final state).
  void drainPipeline() { engine_.drain(); }

  const DecodedProgram& decodedProgram() const { return decoded_; }

 private:
  const Machine* machine_;
  DiagnosticEngine sigDiags_;
  SignatureTable sigs_;
  Disassembler disasm_;
  State state_;
  uop::Binder binder_;
  bool useBound_ = false;
  ExecEngine engine_;
  DecodedProgram decoded_;
  uop::BoundProgram bound_;
  /// The previous program's decode and records, whose storage the next
  /// load decodes and binds into before swapping them in.
  DecodedProgram spareDecoded_;
  uop::BoundProgram spareBound_;
  /// The last accepted program image, replayed by reset().
  std::vector<BitVector> programWords_;
  std::vector<std::pair<std::uint64_t, BitVector>> programData_;
  std::set<std::uint64_t> breakpoints_;
  std::function<void(std::uint64_t)> breakpointHook_;
  std::function<void(std::uint64_t)> trace_;
  /// Everything but opCount, fieldUtilization and instructions is current;
  /// those three lag by the counts in issues_ until foldIssues().
  Stats stats_;
  /// Issues of each instruction since the last fold, by address, and the
  /// completed runs of each block, whose issues and heatmap counts the fold
  /// adds.
  std::vector<std::uint64_t> issues_;
  std::vector<std::uint64_t> blockRuns_;
  std::uint64_t blockIssues_ = 0;
  /// Per address: 0 before run() first reaches it as a leader, kSeenOnce
  /// after that, kIneligible when its block cannot run as one, and n > 0
  /// when its block is blocks_[n - 1].
  std::vector<std::int32_t> blockAt_;
  std::vector<uop::Block> blocks_;
  static constexpr std::int32_t kSeenOnce = -1, kIneligible = -2;
  obs::Registry registry_;
  std::unique_ptr<obs::TraceBuffer> traceBuf_;
  obs::StorageHeatmap heat_;
  bool profiling_ = false;

  /// The run loop behind run() and step(): issues instructions until the
  /// cycle count reaches `maxCycles`, `maxInstructions` have issued, or
  /// another stop; with `breakpoints`, stops before a breakpointed address
  /// (but not before the first instruction).
  RunResult execute(std::uint64_t maxCycles, std::uint64_t maxInstructions,
                    bool breakpoints);
  /// The stop at an address where no instruction was decoded.
  RunResult undecodedStop(std::uint64_t addr) const;
  /// Counts an arrival at the leader `addr` and returns its block, built on
  /// the second arrival; null while there is none to run.
  const uop::Block* blockAt(std::uint64_t addr);
  /// Drops every block and arrival count.
  void dropBlocks();
  void initStats();
  /// Adds issues_ and blockRuns_ to stats_ (and to the heatmap while
  /// profiling) and zeroes them.
  void foldIssues();
  struct FoldOnReturn;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_XSIM_H
