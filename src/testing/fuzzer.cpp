#include "testing/fuzzer.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <ostream>

#include "explore/pool.h"
#include "isdl/parser.h"
#include "isdl/sema.h"
#include "sim/assembler.h"
#include "support/strings.h"
#include "testing/programgen.h"

namespace isdl::testing {

std::uint64_t seedFromEnv(std::uint64_t fallback) {
  const char* env = std::getenv("ISDL_FUZZ_SEED");
  if (!env || !*env) return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 0);
  if (end == env || *end != '\0') return fallback;
  return v;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t lane) {
  // splitmix64 finalizer over seed+lane: cheap, well-distributed, and
  // deterministic per lane regardless of scheduling.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (lane + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Everything one machine index produced; merged in index order so the
/// outcome is independent of worker scheduling.
struct MachineResult {
  bool ran = false;
  std::uint64_t pairs = 0, halted = 0, trapped = 0, hardwareChecked = 0;
  bool generatorError = false;
  std::vector<FuzzFailure> failures;
};

MachineResult fuzzOneMachine(const FuzzConfig& cfg, std::uint64_t index,
                             obs::Registry* registry, std::mutex& logMu) {
  MachineResult res;
  res.ran = true;

  // Index 0 uses the master seed verbatim so the logged replay command
  // (`isdl-fuzz --seed <machineSeed> --machines 1`) regenerates exactly the
  // machine that failed.
  const std::uint64_t machineSeed =
      index == 0 ? cfg.seed : mixSeed(cfg.seed, index);
  std::mt19937_64 rng(machineSeed);
  MachineSpec spec = randomMachineSpec(rng, cfg.gen);
  spec.seed = machineSeed;
  spec.name = cat("FUZZ", index);

  auto logLine = [&](const std::string& line) {
    if (!cfg.log) return;
    std::lock_guard<std::mutex> lock(logMu);
    *cfg.log << line << "\n";
  };

  const std::string source = emitIsdl(spec);
  DiagnosticEngine diags;
  auto machine = parseIsdl(source, diags);
  if (!machine || !checkMachine(*machine, diags)) {
    res.generatorError = true;
    logLine(cat("[isdl-fuzz] seed ", machineSeed,
                ": generated description rejected by the front end:\n",
                diags.dump()));
    return res;
  }

  OracleOptions oopts;
  oopts.maxCycles = cfg.maxCycles;
  oopts.checkHardware = cfg.checkHardware;
  oopts.registry = registry;

  try {
    DifferentialOracle oracle(*machine, oopts);
    sim::Assembler assembler(oracle.signatures());
    const AssemblyGenerator generator(*machine, oracle.signatures());

    for (unsigned p = 0; p < cfg.programsPerMachine; ++p) {
      std::mt19937_64 prng(mixSeed(machineSeed, p + 1));
      std::vector<std::string> lines =
          generator.generate(prng, cfg.programLength);

      DiagnosticEngine adiags;
      auto prog = assembler.assemble(join(lines, "\n") + "\n", adiags);
      if (!prog) {
        res.generatorError = true;
        logLine(cat("[isdl-fuzz] seed ", machineSeed, " program ", p,
                    ": generated program rejected by the assembler:\n",
                    adiags.dump()));
        continue;
      }

      OracleReport rep = oracle.run(*prog);
      ++res.pairs;
      if (rep.reason == sim::StopReason::Halted) ++res.halted;
      if (rep.reason == sim::StopReason::RuntimeError) ++res.trapped;
      if (rep.hardwareChecked) ++res.hardwareChecked;
      if (rep.ok()) continue;

      FuzzFailure fail;
      fail.machineSeed = machineSeed;
      fail.machineIndex = index;
      fail.divergence = rep.summary();
      if (cfg.shrink) {
        ShrinkOptions sopts;
        sopts.oracle = oopts;
        sopts.oracle.registry = nullptr;  // don't count shrink runs as pairs
        fail.shrunk = shrinkFailure(spec, lines, sopts);
      } else {
        fail.shrunk.spec = spec;
        fail.shrunk.program = lines;
        fail.shrunk.divergence = fail.divergence;
        fail.shrunk.reproduced = true;
      }
      if (!cfg.corpusDir.empty())
        fail.reproPath = writeRepro(cfg.corpusDir, fail.shrunk);
      logLine(cat("[isdl-fuzz] DIVERGENCE seed ", machineSeed, " (",
                  fail.shrunk.program.size(), "-line repro",
                  fail.reproPath.empty() ? ""
                                         : cat(", saved to ", fail.reproPath),
                  "):\n", fail.shrunk.divergence));
      res.failures.push_back(std::move(fail));
      break;  // further programs on this machine would re-find the same bug
    }
  } catch (const std::exception& e) {
    // Building tools from a generated description must never throw.
    res.generatorError = true;
    logLine(cat("[isdl-fuzz] seed ", machineSeed,
                ": tool construction threw: ", e.what()));
  }
  return res;
}

}  // namespace

FuzzOutcome runFuzz(const FuzzConfig& cfg, obs::Registry* registry) {
  FuzzOutcome out;
  explore::WorkerPool pool(cfg.jobs);
  const unsigned jobs = pool.jobs();
  std::mutex logMu;

  std::vector<obs::Registry> workerRegs(jobs);

  const auto start = std::chrono::steady_clock::now();
  auto expired = [&] {
    if (cfg.budgetSeconds <= 0) return false;
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= cfg.budgetSeconds;
  };

  std::uint64_t nextIndex = 0;
  bool done = false;
  while (!done) {
    // One batch of machine indices per join; the budget is re-checked per
    // task, so a batch never overshoots by more than the in-flight work.
    std::uint64_t batch;
    if (cfg.budgetSeconds > 0) {
      batch = std::max<std::uint64_t>(jobs * 2, 8);
      if (expired()) break;
    } else {
      batch = cfg.machines - std::min(cfg.machines, nextIndex);
      done = true;
      if (batch == 0) break;
    }

    std::vector<MachineResult> results(batch);
    const std::uint64_t base = nextIndex;
    pool.forEach(batch, [&](std::size_t i, unsigned worker) {
      if (expired()) return;
      results[i] =
          fuzzOneMachine(cfg, base + i, &workerRegs[worker], logMu);
    });
    nextIndex += batch;

    for (auto& r : results) {
      if (!r.ran) continue;
      ++out.machines;
      out.pairs += r.pairs;
      out.halted += r.halted;
      out.trapped += r.trapped;
      out.hardwareChecked += r.hardwareChecked;
      if (r.generatorError) ++out.generatorErrors;
      for (auto& f : r.failures) out.failures.push_back(std::move(f));
    }
  }

  std::sort(out.failures.begin(), out.failures.end(),
            [](const FuzzFailure& a, const FuzzFailure& b) {
              return a.machineIndex < b.machineIndex;
            });
  if (registry)
    for (const auto& reg : workerRegs) registry->merge(reg);
  return out;
}

}  // namespace isdl::testing
