#include "testing/oracle.h"

#include "hw/sharing.h"
#include "support/strings.h"
#include "synth/gatesim.h"

namespace isdl::testing {

std::string OracleReport::summary() const { return join(divergences, "\n"); }

void compareFinalState(const Machine& m, const sim::Xsim& a,
                       const sim::Xsim& b, const char* aName,
                       const char* bName, std::vector<std::string>& out) {
  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    const StorageDef& st = m.storages[si];
    for (std::uint64_t e = 0; e < st.depth; ++e) {
      BitVector va = a.state().read(unsigned(si), e);
      BitVector vb = b.state().read(unsigned(si), e);
      if (va == vb) continue;
      std::string loc = st.depth > 1 ? cat(st.name, "[", e, "]") : st.name;
      out.push_back(cat(loc, ": ", aName, "=", va.toHexString(), " ", bName,
                        "=", vb.toHexString()));
    }
  }
}

void compareStats(const sim::Stats& a, const sim::Stats& b, const char* aName,
                  const char* bName, std::vector<std::string>& out) {
  auto cmp = [&](const char* what, std::uint64_t va, std::uint64_t vb) {
    if (va != vb)
      out.push_back(cat(what, ": ", aName, "=", va, " ", bName, "=", vb));
  };
  cmp("cycles", a.cycles, b.cycles);
  cmp("instructions", a.instructions, b.instructions);
  cmp("data stall cycles", a.dataStallCycles, b.dataStallCycles);
  cmp("struct stall cycles", a.structStallCycles, b.structStallCycles);
  if (a.dataStallsByStorage != b.dataStallsByStorage)
    out.push_back(cat("data stall attribution by storage differs (", aName,
                      " vs ", bName, ")"));
  if (a.structStallsByField != b.structStallsByField)
    out.push_back(cat("struct stall attribution by field differs (", aName,
                      " vs ", bName, ")"));
}

void compareWithHardware(const Machine& m, const sim::Xsim& ref,
                         const hw::HwModel& model,
                         const sim::AssembledProgram& prog,
                         std::uint64_t maxCycles,
                         std::vector<std::string>& out) {
  synth::GateSim gs(model.netlist);
  std::string loadError;
  if (!gs.loadProgram(m, model, prog, &loadError)) {
    out.push_back("hardware model: " + loadError);
    return;
  }
  if (!gs.runUntil(model.haltedReg, maxCycles)) {
    out.push_back(cat("hardware model did not halt within ", maxCycles,
                      " cycles (xsim halted after ", ref.stats().cycles, ")"));
    return;
  }

  for (std::size_t si = 0; si < m.storages.size(); ++si) {
    const StorageDef& st = m.storages[si];
    const auto& map = model.storage[si];
    for (std::uint64_t e = 0; e < st.depth; ++e) {
      BitVector hw =
          map.isMem ? gs.peekMemory(map.mem, e) : gs.peekNet(map.reg);
      BitVector sw = ref.state().read(unsigned(si), e);
      if (hw == sw) continue;
      std::string loc = st.depth > 1 ? cat(st.name, "[", e, "]") : st.name;
      out.push_back(cat(loc, ": hw=", hw.toHexString(),
                        " xsim=", sw.toHexString()));
    }
  }

  std::uint64_t hwInstrs = gs.peekNet(model.instrCountReg).toUint64();
  if (hwInstrs != ref.stats().instructions)
    out.push_back(cat("retired instructions: hw=", hwInstrs,
                      " xsim=", ref.stats().instructions));

  // The cycle identity: the hardware model charges each instruction's static
  // Cycle cost; XSIM adds the ILS's dynamic stalls on top.
  std::uint64_t hwCycles = gs.peekNet(model.cycleCountReg).toUint64();
  std::uint64_t expect = hwCycles + ref.stats().dataStallCycles +
                         ref.stats().structStallCycles;
  if (ref.stats().cycles != expect)
    out.push_back(cat("cycle identity: xsim cycles=", ref.stats().cycles,
                      " != hw cycle_count=", hwCycles, " + stalls=",
                      expect - hwCycles));

  if (gs.peekNet(model.illegalNet).toUint64())
    out.push_back("hardware decoder flagged an illegal instruction");
}

DifferentialOracle::DifferentialOracle(const Machine& m, OracleOptions opts)
    : m_(&m), opts_(opts), uop_(m), interp_(m) {
  interp_.setUopEnabled(false);
}

DifferentialOracle::~DifferentialOracle() = default;

OracleReport DifferentialOracle::run(const sim::AssembledProgram& prog) {
  OracleReport rep;
  auto bump = [&](const char* name) {
    if (opts_.registry) ++opts_.registry->counter(name);
  };
  bump("fuzz/pairs");

  std::string err;
  if (!uop_.loadProgram(prog, &err) || !interp_.loadProgram(prog, &err)) {
    rep.divergences.push_back(cat("program failed to load: ", err));
    bump("fuzz/divergence/load");
    return rep;
  }

  sim::RunResult ri = interp_.run(opts_.maxCycles);
  sim::RunResult ru = uop_.run(opts_.maxCycles);
  rep.reason = ri.reason;

  // Leg 1: the two software engines, exactly — traps included.
  std::size_t before = rep.divergences.size();
  if (ru.reason != ri.reason || ru.message != ri.message) {
    rep.divergences.push_back(
        cat("stop: uop=", sim::stopReasonName(ru.reason),
            ru.message.empty() ? "" : cat(" (", ru.message, ")"),
            " interp=", sim::stopReasonName(ri.reason),
            ri.message.empty() ? "" : cat(" (", ri.message, ")")));
  }
  uop_.drainPipeline();
  interp_.drainPipeline();
  compareStats(uop_.stats(), interp_.stats(), "uop", "interp",
               rep.divergences);
  compareFinalState(*m_, uop_, interp_, "uop", "interp", rep.divergences);
  if (rep.divergences.size() != before) bump("fuzz/divergence/engine");

  if (ri.reason == sim::StopReason::RuntimeError) bump("fuzz/trapped");
  if (ri.reason == sim::StopReason::Halted) bump("fuzz/halted");

  // Leg 2: the generated hardware model, on clean halting runs only.
  if (opts_.checkHardware && ri.reason == sim::StopReason::Halted) {
    if (!model_) {
      model_ = std::make_unique<hw::HwModel>(
          hw::buildDatapath(*m_, uop_.signatures()));
      hw::shareResources(*model_, *m_);
    }
    before = rep.divergences.size();
    compareWithHardware(*m_, interp_, *model_, prog, opts_.maxCycles,
                        rep.divergences);
    rep.hardwareChecked = true;
    bump("fuzz/hw_checked");
    if (rep.divergences.size() != before) bump("fuzz/divergence/hardware");
  }

  if (!rep.ok()) bump("fuzz/divergent_pairs");
  return rep;
}

}  // namespace isdl::testing
