// Figure 4 reproduction: the disassembly algorithm.
//
// The figure gives the pseudo-code (match constant signature parts per
// field, reverse the parameter encodings, recurse into non-terminals); the
// paper's performance note is footnote 4 — "the number of matches ... grows
// linearly with the size of the ISDL description". This harness measures
// per-instruction decode cost on each architecture and shows it tracks the
// operation count, and benchmarks the whole-program off-line pass.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace isdl;
using namespace isdl::bench;

struct Setup {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<DiagnosticEngine> diags;
  std::unique_ptr<sim::SignatureTable> sigs;
  std::unique_ptr<sim::Disassembler> disasm;
  sim::AssembledProgram prog;
};

Setup makeSetup(std::unique_ptr<Machine> (*loader)(), const char* source) {
  Setup s;
  s.machine = loader();
  s.diags = std::make_unique<DiagnosticEngine>();
  s.sigs = std::make_unique<sim::SignatureTable>(*s.machine, *s.diags);
  s.disasm = std::make_unique<sim::Disassembler>(*s.sigs);
  s.prog = assembleOrDie(*s.sigs, source);
  return s;
}

void BM_DecodeProgramSpam(benchmark::State& state) {
  Setup s = makeSetup(archs::loadSpam, archs::spamBenchmarks()[0].source);
  sim::DecodedProgram decoded;
  for (auto _ : state) {
    s.disasm->decodeProgram(s.prog.words, s.prog.words.size(), decoded);
    benchmark::DoNotOptimize(decoded.byAddress.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(s.prog.words.size()));
}
BENCHMARK(BM_DecodeProgramSpam);

void BM_DecodeOneInstruction(benchmark::State& state) {
  Setup s = makeSetup(archs::loadSrep, archs::srepBenchmarks()[1].source);
  std::uint64_t addr = 0;
  sim::DecodedProgram scratch;
  for (auto _ : state) {
    scratch.ops.clear();
    scratch.params.clear();
    benchmark::DoNotOptimize(s.disasm->decodeAt(s.prog.words, addr, scratch));
    addr = (addr + 1) % s.prog.words.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeOneInstruction);

void printFigure4(ResultSink& sink) {
  std::printf("\nFigure 4: disassembly algorithm — decode cost vs "
              "description size\n");
  printRule();
  std::printf("%-8s %10s %12s %22s %20s\n", "Arch", "fields",
              "operations", "decode rate (inst/s)", "ns per instruction");
  printRule();
  struct Row {
    const char* name;
    std::unique_ptr<Machine> (*loader)();
    const char* source;
  };
  Row rows[] = {
      {"SREP", archs::loadSrep, archs::srepBenchmarks()[1].source},
      {"TDSP", archs::loadTdsp, archs::tdspBenchmarks()[0].source},
      {"SPAM2", archs::loadSpam2, archs::spam2Benchmarks()[0].source},
      {"SPAM", archs::loadSpam, archs::spamBenchmarks()[0].source},
  };
  for (const Row& row : rows) {
    Setup s = makeSetup(row.loader, row.source);
    std::size_t nops = 0;
    for (const auto& f : s.machine->fields) nops += f.operations.size();
    std::uint64_t decoded = 0;
    sim::DecodedProgram d;
    auto [iters, seconds] = timeLoop([&] {
      s.disasm->decodeProgram(s.prog.words, s.prog.words.size(), d);
      decoded = d.byAddress.size();
    });
    double rate = double(iters) * double(decoded) / seconds;
    std::printf("%-8s %10zu %12zu %22.0f %20.1f\n", row.name,
                s.machine->fields.size(), nops, rate, 1e9 / rate);
    sink.add(std::string(row.name) + "/operations", double(nops));
    sink.add(std::string(row.name) + "/decode_inst_per_sec", rate);
    sink.add(std::string(row.name) + "/ns_per_instruction", 1e9 / rate);
  }
  printRule();
  std::printf("Shape check: per-instruction decode time grows with the "
              "operation count (linear matches),\nnot with program size — "
              "the off-line pass is O(program x description).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ResultSink sink("fig4_disasm_speed");
  printFigure4(sink);
  return 0;
}
